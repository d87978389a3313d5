//! Monte-Carlo campaigns: run a seeded trial many times, classify and
//! summarize.

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

use redundancy_core::context::{CancelToken, ExecContext};
use redundancy_core::cost::Cost;
use redundancy_core::obs::telemetry::{self, Counter, Timer};
use redundancy_core::obs::{ObsHandle, Observer, SpanKind, SpanStatus, StreamingMerger, Trace};

use crate::chaos::ChaosPlan;
use crate::checkpoint::{self, CheckpointLog, CheckpointSpec, Resumed};
use crate::parallel::{chunk_size, parallel_indexed_chunked_hooked};
use crate::stats::{mean_ci_fields, wilson_interval, Estimate, Proportion};

/// The classification of one trial.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrialOutcome {
    /// The system delivered a correct result.
    Correct {
        /// Cost of the trial.
        cost: Cost,
    },
    /// The system delivered a wrong result *without noticing* — the worst
    /// outcome (undetected failure).
    Undetected {
        /// Cost of the trial.
        cost: Cost,
    },
    /// The system failed but *knew* it failed (fail-stop).
    Detected {
        /// Cost of the trial.
        cost: Cost,
    },
}

impl TrialOutcome {
    /// The flight-recorder counter this disposition bumps.
    fn counter(&self) -> Counter {
        match self {
            TrialOutcome::Correct { .. } => Counter::TrialsCorrect,
            TrialOutcome::Undetected { .. } => Counter::TrialsUndetected,
            TrialOutcome::Detected { .. } => Counter::TrialsDetected,
        }
    }

    /// The cost of the trial.
    #[must_use]
    pub fn cost(&self) -> Cost {
        match self {
            TrialOutcome::Correct { cost }
            | TrialOutcome::Undetected { cost }
            | TrialOutcome::Detected { cost } => *cost,
        }
    }

    /// Whether the trial delivered a correct result.
    #[must_use]
    pub fn is_correct(&self) -> bool {
        matches!(self, TrialOutcome::Correct { .. })
    }

    /// The disposition label used in trace spans (`"correct"`,
    /// `"undetected"` or `"detected"`).
    #[must_use]
    pub fn disposition(&self) -> &'static str {
        match self {
            TrialOutcome::Correct { .. } => "correct",
            TrialOutcome::Undetected { .. } => "undetected",
            TrialOutcome::Detected { .. } => "detected",
        }
    }
}

/// Aggregated results of a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialSummary {
    /// Reliability: fraction of correct trials, with Wilson interval.
    pub reliability: Proportion,
    /// Fraction of undetected (silent) failures.
    pub undetected: Proportion,
    /// Fraction of detected (fail-stop) failures.
    pub detected: Proportion,
    /// Mean work units per trial.
    pub work: Estimate,
    /// Mean virtual time per trial.
    pub latency: Estimate,
    /// Mean invocations per trial.
    pub invocations: Estimate,
    /// Total design cost charged across the campaign divided by trials.
    pub design_cost: f64,
}

/// Only every 64th trial is wall-clock timed for the flight recorder:
/// at sub-microsecond trial costs, two `Instant::now()` calls per trial
/// would dominate the telemetry budget, while a 1-in-64 sample still
/// feeds the duration histogram faithfully (a thousand-trial campaign
/// contributes ~16 samples per run, and campaigns repeat).
const TRIAL_SAMPLE_MASK: usize = 63;

/// Starts the sampled per-trial timer (`None` for unsampled trials or
/// while the recorder is off — no clock read either way).
#[inline]
fn trial_timer(i: usize) -> Option<std::time::Instant> {
    if i & TRIAL_SAMPLE_MASK == 0 {
        telemetry::timer_start()
    } else {
        None
    }
}

/// Per-trial flight-recorder bookkeeping, consolidated behind a single
/// gate check: one shard lookup covers the sampled duration and the
/// disposition counter. Recorder off: one relaxed load and a branch.
#[inline]
fn record_trial(timed: Option<std::time::Instant>, outcome: &TrialOutcome) {
    if let Some(shard) = telemetry::active_shard() {
        if let Some(started) = timed {
            let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            shard.observe_ns(Timer::TrialNs, ns);
        }
        shard.add(outcome.counter(), 1);
    }
}

/// A seeded Monte-Carlo campaign.
///
/// # Examples
///
/// ```
/// use redundancy_core::cost::Cost;
/// use redundancy_sim::trial::{Campaign, TrialOutcome};
///
/// // A fake system that succeeds on even seeds.
/// let summary = Campaign::new(1000).run(7, |seed, _trial| {
///     if seed % 2 == 0 {
///         TrialOutcome::Correct { cost: Cost::ZERO }
///     } else {
///         TrialOutcome::Detected { cost: Cost::ZERO }
///     }
/// });
/// assert_eq!(summary.reliability.trials, 1000);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Campaign {
    trials: usize,
}

impl Campaign {
    /// Creates a campaign of `trials` runs.
    ///
    /// # Panics
    ///
    /// Panics if `trials == 0`.
    #[must_use]
    pub fn new(trials: usize) -> Self {
        assert!(trials > 0, "a campaign needs at least one trial");
        Self { trials }
    }

    /// Number of trials.
    #[must_use]
    pub fn trials(&self) -> usize {
        self.trials
    }

    /// The derived seed of trial `i` under `campaign_seed` (what
    /// [`run`](Self::run) passes to the trial closure).
    #[must_use]
    pub fn trial_seed(campaign_seed: u64, i: usize) -> u64 {
        campaign_seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((i as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9))
            ^ 0x94d0_49bb_1331_11eb
    }

    /// Runs the campaign: `trial(seed, index)` is called once per trial
    /// with a distinct derived seed.
    pub fn run<F>(&self, campaign_seed: u64, mut trial: F) -> TrialSummary
    where
        F: FnMut(u64, usize) -> TrialOutcome,
    {
        telemetry::add(Counter::TrialsScheduled, self.trials as u64);
        let mut outcomes = Vec::with_capacity(self.trials);
        for i in 0..self.trials {
            let timed = trial_timer(i);
            let outcome = trial(Self::trial_seed(campaign_seed, i), i);
            record_trial(timed, &outcome);
            outcomes.push(outcome);
        }
        summarize(&outcomes)
    }

    /// Runs the campaign with execution tracing: every trial gets an
    /// [`ExecContext`] seeded exactly as [`run`](Self::run) would seed it
    /// and attached to `observer`, and is wrapped in a
    /// [`SpanKind::Trial`] span whose end status records the disposition.
    ///
    /// All trials share one span-id allocator, so the recorded stream can
    /// be split back into per-trial traces with
    /// [`crate::forensics::split_trials`]. Each trial span is one unit of
    /// its context's trace (see [`ExecContext::with_observer`]):
    /// `observer` receives every trial as one
    /// [`Observer::record_batch`] when the trial ends. A trial that panics is dropped with its
    /// context, and the panic propagates.
    pub fn run_traced<F>(
        &self,
        campaign_seed: u64,
        observer: Arc<dyn Observer>,
        mut trial: F,
    ) -> TrialSummary
    where
        F: FnMut(&mut ExecContext, u64, usize) -> TrialOutcome,
    {
        telemetry::add(Counter::TrialsScheduled, self.trials as u64);
        let handle = ObsHandle::new(observer);
        let mut outcomes = Vec::with_capacity(self.trials);
        for i in 0..self.trials {
            let seed = Self::trial_seed(campaign_seed, i);
            let timed = trial_timer(i);
            let mut ctx = ExecContext::new(seed).with_obs_handle(handle.clone());
            let span = ctx.obs_begin(|| SpanKind::Trial {
                index: i as u64,
                seed,
            });
            let outcome = trial(&mut ctx, seed, i);
            ctx.obs_end(
                span,
                SpanStatus::Trial {
                    disposition: outcome.disposition(),
                },
                outcome.cost().snapshot(),
            );
            record_trial(timed, &outcome);
            outcomes.push(outcome);
        }
        summarize(&outcomes)
    }

    /// Runs the campaign as `spec` describes: the one engine behind
    /// every runner except the serial references [`run`](Self::run) and
    /// [`run_traced`](Self::run_traced).
    ///
    /// Trial `i` gets an [`ExecContext`] seeded with
    /// [`trial_seed`](Self::trial_seed)`(campaign_seed, i)`, exactly as
    /// [`run_traced`](Self::run_traced) seeds it, and outcomes are
    /// collected in trial-index order. As long as trials share no
    /// mutable state (see **`jobs`**), the returned [`TrialSummary`] is
    /// therefore **bit-for-bit identical** to the serial one for every
    /// spec:
    ///
    /// - **`jobs`** shards trials in chunks across the persistent worker
    ///   pool; parallelism changes wall-clock time, not results — but
    ///   only for a `trial` closure whose calls share no mutable state.
    ///   A closure that reuses one stateful object across trials makes
    ///   each trial depend on the ones that ran before it, and at
    ///   `jobs > 1` that order is the schedule's. One such object is a
    ///   shared `FaultyVariant`: every execution bumps its `AgeHandle`,
    ///   and aging faults read it. Build such objects per trial, or run
    ///   the campaign at `jobs = 1`.
    /// - **`observer`**, when enabled, receives exactly the event stream
    ///   [`run_traced`](Self::run_traced) records. Concurrent trials
    ///   cannot share one span-id allocator without interleaving their
    ///   streams, so each worker records its trials into a buffering
    ///   [`Trace`] it recycles — touching no shared state — and hands
    ///   over a **run** of consecutive trials at a time (see
    ///   [`RUN_TRIALS`]). As soon as every earlier trial has finished,
    ///   the run's events are forwarded to `observer` as one batch, with
    ///   span ids renumbered into one campaign-wide sequence
    ///   ([`StreamingMerger`]), so the merger's lock and the sink's batch
    ///   are paid once per run, not once per trial. Workers that run too
    ///   far ahead of the merge frontier wait for it, so peak buffering is
    ///   a small window of in-flight runs and a bounded `observer` (e.g. a
    ///   ring buffer) bounds peak memory independent of campaign length.
    ///   A trial that the worker pool's help-drain runs above another one
    ///   on the same thread is handed over alone and never waits: the
    ///   trial it would wait for may be the one below it. `None` or a
    ///   disabled observer runs untraced.
    /// - **`checkpoint`** commits completed outcomes (and, traced, the
    ///   committed prefix of the merged stream) to the file in contiguous
    ///   batches of [`CheckpointSpec::interval`] trials. A restart with
    ///   the same arguments replays the committed prefix into `observer`
    ///   and runs only the rest, so summary and stream match an
    ///   uninterrupted run's; work completed but not yet flushed when the
    ///   process died is re-run. Restarting with a different seed, trial
    ///   count or tracedness is refused ([`checkpoint::Error::Mismatch`]).
    /// - **`chaos`** injects harness faults: worker kills at trial
    ///   boundaries, cooperative cancellation on a scripted fuel-charge
    ///   check ([`CancelToken::cancel_after`]) and chunk scheduling
    ///   delays. A killed or chaos-cancelled trial panics (payload
    ///   `"chaos: ..."`) instead of recording its outcome, so resuming
    ///   from the checkpoint converges on the clean run.
    ///
    /// # Errors
    ///
    /// Only with a `checkpoint`: returns [`checkpoint::Error`] when the
    /// file cannot be read or written, records a committed-trial gap
    /// ([`checkpoint::Error::Corrupt`]), or pins different campaign
    /// parameters.
    ///
    /// # Panics
    ///
    /// Propagates a panic from the trial closure or a chaos fault once
    /// the worker pool has quiesced, like [`run`](Self::run).
    pub fn execute<F>(
        &self,
        campaign_seed: u64,
        spec: &RunSpec<'_>,
        trial: F,
    ) -> Result<TrialSummary, checkpoint::Error>
    where
        F: Fn(&mut ExecContext, u64, usize) -> TrialOutcome + Sync,
    {
        let observer = spec.observer.as_ref().filter(|observer| observer.enabled());
        let (log, resumed) = match spec.checkpoint {
            Some(checkpoint) => {
                let (log, resumed) = CheckpointLog::open(
                    checkpoint,
                    campaign_seed,
                    self.trials,
                    observer.is_some(),
                )?;
                (Some(Arc::new(log)), resumed)
            }
            None => (None, Resumed::default()),
        };
        if let Some(observer) = observer {
            // Replay the committed stream prefix: the sink assigns global
            // sequence numbers at record time, so replay continues the
            // numbering exactly where the interrupted run left off.
            observer.record_batch(&resumed.events);
        }
        let start = resumed.outcomes.len();
        let mut outcomes = resumed.outcomes;
        if start < self.trials {
            let fresh = match observer {
                Some(observer) => self.traced_segment(
                    campaign_seed,
                    spec.jobs,
                    Arc::clone(observer),
                    start,
                    resumed.span_offset,
                    log.as_ref(),
                    spec.chaos,
                    &trial,
                ),
                None => self.untraced_segment(
                    campaign_seed,
                    spec.jobs,
                    start,
                    log.as_deref(),
                    spec.chaos,
                    &trial,
                ),
            };
            // Without a resumed prefix the fresh outcomes are the whole
            // result: take them rather than copy them (peak memory).
            if outcomes.is_empty() {
                outcomes = fresh;
            } else {
                outcomes.extend(fresh);
            }
        }
        if let Some(log) = log {
            log.finish()?;
        }
        Ok(summarize(&outcomes))
    }

    /// Runs the campaign with trials sharded across up to `jobs` worker
    /// threads: [`execute`](Self::execute) with only `jobs` set, for
    /// closures that need no [`ExecContext`]. The summary is bit-for-bit
    /// that of [`run`](Self::run) when the closure's calls share no
    /// mutable state (see [`execute`](Self::execute)'s `jobs`); the
    /// other difference is the closure bound — workers share it, so it
    /// must be `Fn + Sync` rather than `FnMut`.
    ///
    /// # Panics
    ///
    /// Propagates a panic from the trial closure, like [`run`](Self::run).
    pub fn run_parallel<F>(&self, campaign_seed: u64, jobs: usize, trial: F) -> TrialSummary
    where
        F: Fn(u64, usize) -> TrialOutcome + Sync,
    {
        let spec = RunSpec {
            jobs,
            ..RunSpec::default()
        };
        self.execute(campaign_seed, &spec, |_, seed, i| trial(seed, i))
            .expect("a campaign without a checkpoint does no checkpoint I/O")
    }

    /// Runs a traced campaign with trials sharded across up to `jobs`
    /// worker threads: [`execute`](Self::execute) with `jobs` and
    /// `observer` set. The summary and the stream `observer` sees are
    /// bit-for-bit those of [`run_traced`](Self::run_traced), so
    /// [`crate::forensics::split_trials`] applies unchanged.
    pub fn run_traced_parallel<F>(
        &self,
        campaign_seed: u64,
        jobs: usize,
        observer: Arc<dyn Observer>,
        trial: F,
    ) -> TrialSummary
    where
        F: Fn(&mut ExecContext, u64, usize) -> TrialOutcome + Sync,
    {
        let spec = RunSpec {
            jobs,
            observer: Some(observer),
            ..RunSpec::default()
        };
        self.execute(campaign_seed, &spec, trial)
            .expect("a campaign without a checkpoint does no checkpoint I/O")
    }

    /// Runs the campaign like [`run_parallel`](Self::run_parallel),
    /// checkpointing completed trials to `spec`'s file so a killed run
    /// restarted with the same arguments skips the committed prefix:
    /// [`execute`](Self::execute) with `jobs` and `checkpoint` set.
    ///
    /// # Errors
    ///
    /// As [`execute`](Self::execute).
    pub fn run_parallel_resumable<F>(
        &self,
        campaign_seed: u64,
        jobs: usize,
        spec: &CheckpointSpec,
        trial: F,
    ) -> Result<TrialSummary, checkpoint::Error>
    where
        F: Fn(u64, usize) -> TrialOutcome + Sync,
    {
        let spec = RunSpec {
            jobs,
            checkpoint: Some(spec),
            ..RunSpec::default()
        };
        self.execute(campaign_seed, &spec, |_, seed, i| trial(seed, i))
    }

    /// The untraced per-trial loop of [`execute`](Self::execute): runs
    /// trials `start..trials` on up to `jobs` workers, committing each
    /// outcome to `log`.
    fn untraced_segment<F>(
        &self,
        campaign_seed: u64,
        jobs: usize,
        start: usize,
        log: Option<&CheckpointLog>,
        chaos: Option<&ChaosPlan>,
        trial: &F,
    ) -> Vec<TrialOutcome>
    where
        F: Fn(&mut ExecContext, u64, usize) -> TrialOutcome + Sync,
    {
        let remaining = self.trials - start;
        telemetry::add(Counter::TrialsScheduled, remaining as u64);
        let jobs = jobs.clamp(1, remaining);
        let chunk = chunk_size(remaining, jobs);
        parallel_indexed_chunked_hooked(
            jobs,
            remaining,
            chunk,
            |c| delay_chunk(chaos, c),
            |(): &mut (), k, _| {
                let i = start + k;
                if let Some(plan) = chaos {
                    plan.before_trial(i);
                }
                let timed = trial_timer(i);
                let seed = Self::trial_seed(campaign_seed, i);
                // Armed in place: a helper returning the context would move
                // it on every trial.
                let mut ctx = ExecContext::new(seed);
                if let Some(checks) = chaos.and_then(|plan| plan.charge_fuse(i)) {
                    ctx = ctx.with_cancel_token(CancelToken::cancel_after(checks));
                }
                let outcome = trial(&mut ctx, seed, i);
                if ctx.was_cancelled() {
                    // Scripted cancellation: discard the partial outcome
                    // so the resumed re-run (clean, no fuse) is the one
                    // that counts.
                    ChaosPlan::cancelled_trial(i);
                }
                if let Some(plan) = chaos {
                    plan.after_trial(i);
                }
                // Recorded only once the outcome survives the chaos
                // hooks: a killed trial is re-run on resume, and neither
                // its count nor its duration sample may land twice.
                record_trial(timed, &outcome);
                if let Some(log) = log {
                    log.record_outcome(i, &outcome);
                }
                outcome
            },
        )
    }

    /// The traced per-trial loop of [`execute`](Self::execute): runs
    /// trials `start..trials`, streaming their merged runs into
    /// `observer` with span ids continuing from `span_offset`.
    ///
    /// Each worker keeps one [`Run`]: its trials record back to back into
    /// the run's [`Trace`], each closed with [`Trace::end_trial`], and the
    /// run goes to the merger in one submission when it ends (see
    /// [`RUN_TRIALS`]). The trace — with every child trace it recycled —
    /// and the list of trial ends stay for the worker's next run.
    ///
    /// When a trial panics — a bug in the trial closure or a scripted
    /// chaos fault — the merger is aborted *before* the panic propagates,
    /// releasing workers blocked on the merge window (the panicked run
    /// will never be submitted, so they would otherwise wait forever),
    /// then the panic resumes and surfaces from the worker pool as usual.
    /// The run's earlier trials are dropped with its trace.
    #[allow(clippy::too_many_arguments)]
    fn traced_segment<F>(
        &self,
        campaign_seed: u64,
        jobs: usize,
        observer: Arc<dyn Observer>,
        start: usize,
        span_offset: u64,
        log: Option<&Arc<CheckpointLog>>,
        chaos: Option<&ChaosPlan>,
        trial: &F,
    ) -> Vec<TrialOutcome>
    where
        F: Fn(&mut ExecContext, u64, usize) -> TrialOutcome + Sync,
    {
        let remaining = self.trials - start;
        telemetry::add(Counter::TrialsScheduled, remaining as u64);
        let jobs = jobs.clamp(1, remaining);
        let chunk = chunk_size(remaining, jobs);
        let window = merge_window(remaining, jobs, chunk);
        let mut merger = StreamingMerger::new(observer)
            .with_window(window)
            .with_start(start, span_offset);
        if let Some(log) = log {
            // The tap runs under the merger lock in strict trial order,
            // handing each trial's renumbered slice to the checkpoint.
            let log = Arc::clone(log);
            merger = merger.with_tap(move |i, events| log.record_events(i, events));
        }
        // Trials into the segment after which a commit is due: a run
        // ending there keeps the commit points of trial-at-a-time
        // hand-offs.
        let commit_every = log.map(|log| log.interval());
        let outcomes = parallel_indexed_chunked_hooked(
            jobs,
            remaining,
            chunk,
            |c| delay_chunk(chaos, c),
            |run: &mut Run, k, chunk_ends| {
                let i = start + k;
                let below = TRACED_TRIALS.replace(TRACED_TRIALS.get() + 1);
                let result = catch_unwind(AssertUnwindSafe(|| {
                    if let Some(plan) = chaos {
                        plan.before_trial(i);
                    }
                    let timed = trial_timer(i);
                    let seed = Self::trial_seed(campaign_seed, i);
                    let trace = run.trace.take().unwrap_or_default();
                    let mut ctx = ExecContext::new(seed).with_trace(trace);
                    if let Some(checks) = chaos.and_then(|plan| plan.charge_fuse(i)) {
                        ctx = ctx.with_cancel_token(CancelToken::cancel_after(checks));
                    }
                    let span = ctx.obs_begin(|| SpanKind::Trial {
                        index: i as u64,
                        seed,
                    });
                    let outcome = trial(&mut ctx, seed, i);
                    if ctx.was_cancelled() {
                        ChaosPlan::cancelled_trial(i);
                    }
                    ctx.obs_end(
                        span,
                        SpanStatus::Trial {
                            disposition: outcome.disposition(),
                        },
                        outcome.cost().snapshot(),
                    );
                    if let Some(plan) = chaos {
                        plan.after_trial(i);
                    }
                    // After the chaos hooks (as in the untraced loop);
                    // before the merge so the count never includes merge
                    // stalls.
                    record_trial(timed, &outcome);
                    let mut trace = ctx.take_trace().unwrap_or_default();
                    if run.ends.is_empty() {
                        run.first = i;
                    }
                    run.ends.push(trace.end_trial());
                    let commit_due = commit_every.is_some_and(|every| (k + 1) % every == 0);
                    if below > 0 || chunk_ends || commit_due || run.ends.len() == RUN_TRIALS {
                        trace.hand_off(|events| {
                            if below > 0 {
                                // A trial suspended below this one on this
                                // thread may be the one the window waits
                                // for. Such a trial runs alone in its run:
                                // its region's scratch is its own.
                                merger.submit_nested(run.first, events, &run.ends);
                            } else {
                                merger.submit(run.first, events, &run.ends);
                            }
                        });
                        run.ends.clear();
                    }
                    run.trace = Some(trace);
                    if let Some(log) = log {
                        log.record_outcome(i, &outcome);
                    }
                    outcome
                }));
                TRACED_TRIALS.set(below);
                match result {
                    Ok(outcome) => outcome,
                    Err(payload) => {
                        merger.abort();
                        resume_unwind(payload);
                    }
                }
            },
        );
        debug_assert!(
            merger.peak_buffered() <= window,
            "the merge window bounds the runs of trials that were not nested"
        );
        outcomes
    }
}

/// Most trials a traced campaign worker records before it hands them to
/// the merger as one run. A run also ends earlier: at the end of the
/// worker's chunk, at every checkpoint commit boundary (so a
/// checkpointed campaign commits where a trial-at-a-time hand-off would,
/// and a kill leaves the same committed prefix), and after any trial
/// that ran above another on the same thread, which is handed over
/// alone. Each run pays one merger lock round trip and one sink batch,
/// so longer runs amortize more, yet on the benchmark's 11-event NVP
/// trial runs of 16 ran the traced campaign 7% faster than runs of 32
/// and 11% faster than runs of 64, and no slower than runs of 8. The
/// cause of the slowdown was not isolated: a run of 32 such trials
/// buffers about 31 KiB of 88-byte events, which still fits a 48 KiB
/// first-level data cache.
pub const RUN_TRIALS: usize = 16;

/// A traced campaign worker's open run of consecutive trials.
#[derive(Default)]
struct Run {
    /// The worker's trace, recording the run (`None` only before the
    /// first trial and while a trial holds it).
    trace: Option<Trace>,
    /// Index of the run's first trial.
    first: usize,
    /// Where each trial recorded so far ends in the trace's buffer.
    ends: Vec<usize>,
}

thread_local! {
    /// Traced campaign trials running on this thread: more than one when
    /// the worker pool's help-drain runs a trial while another waits on a
    /// nested region below it.
    static TRACED_TRIALS: Cell<usize> = const { Cell::new(0) };
}

/// How [`Campaign::execute`] runs a campaign. The default runs untraced,
/// without a checkpoint or injected faults, on the calling thread.
#[derive(Clone, Default)]
pub struct RunSpec<'a> {
    /// Worker threads to shard trials across (0 and 1 both run inline on
    /// the calling thread). Results do not depend on it only while the
    /// trial closure's calls share no mutable state (see
    /// [`Campaign::execute`]).
    pub jobs: usize,
    /// Trace sink; `None` or a disabled observer runs untraced.
    pub observer: Option<Arc<dyn Observer>>,
    /// Checkpoint file that makes the campaign resumable.
    pub checkpoint: Option<&'a CheckpointSpec>,
    /// Harness faults to inject.
    pub chaos: Option<&'a ChaosPlan>,
}

/// The streaming merge's buffering window for `remaining` trials on
/// `jobs` workers claiming `chunk`-trial chunks: big enough that a full
/// complement of workers each holding one in-flight chunk never stalls,
/// small enough that peak buffering stays O(jobs · chunk), not
/// O(trials). Blocking on the window is deadlock-free: chunks are
/// claimed in ascending index order, so the worker that owns the merge
/// frontier's trial is never the one waiting (see
/// [`StreamingMerger::with_window`]), and a trial running above another
/// on the same thread never waits at all. Only those nested trials can
/// buffer beyond the window.
fn merge_window(remaining: usize, jobs: usize, chunk: usize) -> usize {
    (2 * jobs * chunk).max(16).min(remaining.max(1))
}

/// The chunk hook of both per-trial loops: sleeps through `chaos`'s
/// scripted delay for chunk `c`, if any.
fn delay_chunk(chaos: Option<&ChaosPlan>, c: usize) {
    if let Some(delay) = chaos.and_then(|plan| plan.chunk_delay(c)) {
        telemetry::add(Counter::ChaosDelays, 1);
        std::thread::sleep(delay);
    }
}

/// Summarizes a slice of trial outcomes.
///
/// # Panics
///
/// Panics if `outcomes` is empty.
#[must_use]
pub fn summarize(outcomes: &[TrialOutcome]) -> TrialSummary {
    assert!(!outcomes.is_empty(), "no outcomes to summarize");
    let n = outcomes.len();
    let (mut correct, mut undetected, mut detected) = (0, 0, 0);
    for outcome in outcomes {
        match outcome {
            TrialOutcome::Correct { .. } => correct += 1,
            TrialOutcome::Undetected { .. } => undetected += 1,
            TrialOutcome::Detected { .. } => detected += 1,
        }
    }
    let design: f64 = outcomes.iter().map(|o| o.cost().design_cost).sum::<f64>() / n as f64;
    // The estimates read their fields straight from the outcomes.
    let [work, latency, invocations] = mean_ci_fields(outcomes, |o| {
        let cost = o.cost();
        [
            cost.work_units as f64,
            cost.virtual_ns as f64,
            cost.invocations as f64,
        ]
    });
    TrialSummary {
        reliability: wilson_interval(correct, n),
        undetected: wilson_interval(undetected, n),
        detected: wilson_interval(detected, n),
        work,
        latency,
        invocations,
        design_cost: design,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_counts_categories() {
        let summary = Campaign::new(300).run(1, |_seed, i| {
            let cost = Cost::of_invocation(10, 10);
            match i % 3 {
                0 => TrialOutcome::Correct { cost },
                1 => TrialOutcome::Undetected { cost },
                _ => TrialOutcome::Detected { cost },
            }
        });
        assert_eq!(summary.reliability.successes, 100);
        assert_eq!(summary.undetected.successes, 100);
        assert_eq!(summary.detected.successes, 100);
        assert!((summary.work.mean - 10.0).abs() < 1e-9);
        assert!((summary.invocations.mean - 1.0).abs() < 1e-9);
    }

    #[test]
    fn seeds_are_distinct_and_deterministic() {
        let mut seeds_a = Vec::new();
        let _ = Campaign::new(50).run(9, |seed, _| {
            seeds_a.push(seed);
            TrialOutcome::Correct { cost: Cost::ZERO }
        });
        let mut seeds_b = Vec::new();
        let _ = Campaign::new(50).run(9, |seed, _| {
            seeds_b.push(seed);
            TrialOutcome::Correct { cost: Cost::ZERO }
        });
        assert_eq!(seeds_a, seeds_b);
        let mut dedup = seeds_a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds_a.len(), "duplicate trial seeds");
    }

    #[test]
    fn different_campaign_seeds_differ() {
        let mut a = Vec::new();
        let _ = Campaign::new(5).run(1, |seed, _| {
            a.push(seed);
            TrialOutcome::Correct { cost: Cost::ZERO }
        });
        let mut b = Vec::new();
        let _ = Campaign::new(5).run(2, |seed, _| {
            b.push(seed);
            TrialOutcome::Correct { cost: Cost::ZERO }
        });
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_panics() {
        let _ = Campaign::new(0);
    }

    /// A seed-driven trial with varying dispositions and costs — enough
    /// structure that any ordering or double-execution bug in the
    /// parallel path would change the summary.
    fn synthetic_trial(seed: u64, i: usize) -> TrialOutcome {
        let cost = Cost::of_invocation((seed % 97) + i as u64, (seed % 31) + 1);
        match seed % 5 {
            0 => TrialOutcome::Undetected { cost },
            1 | 2 => TrialOutcome::Detected { cost },
            _ => TrialOutcome::Correct { cost },
        }
    }

    #[test]
    fn parallel_summary_is_bit_identical_to_serial() {
        let campaign = Campaign::new(257);
        let serial = campaign.run(0xDEAD_BEEF, synthetic_trial);
        for jobs in [1, 2, 8] {
            let parallel = campaign.run_parallel(0xDEAD_BEEF, jobs, synthetic_trial);
            assert_eq!(serial, parallel, "jobs={jobs}");
        }
    }

    #[test]
    fn parallel_with_one_job_spawns_nothing_but_matches() {
        let campaign = Campaign::new(3);
        assert_eq!(
            campaign.run(42, synthetic_trial),
            campaign.run_parallel(42, 1, synthetic_trial)
        );
    }

    #[test]
    fn traced_parallel_with_disabled_observer_matches_serial_summary() {
        use redundancy_core::obs::NoopObserver;
        let campaign = Campaign::new(64);
        let trial = |ctx: &mut ExecContext, _seed: u64, i: usize| {
            // Consume randomness so the context matters.
            let draw = ctx.rng().next_u64();
            synthetic_trial(draw, i)
        };
        let serial = campaign.run_traced(7, Arc::new(NoopObserver), trial);
        let parallel = campaign.run_traced_parallel(7, 4, Arc::new(NoopObserver), trial);
        assert_eq!(serial, parallel);
    }

    /// A traced trial that opens an inner span and consumes randomness,
    /// so both the event stream and the outcomes depend on scheduling
    /// being handled correctly.
    fn traced_trial(ctx: &mut ExecContext, _seed: u64, i: usize) -> TrialOutcome {
        let span = ctx.obs_begin(|| SpanKind::Scope { name: "work" });
        let draw = ctx.rng().next_u64();
        ctx.obs_end(span, SpanStatus::Ok, Cost::ZERO.snapshot());
        synthetic_trial(draw, i)
    }

    #[test]
    fn traced_parallel_stream_is_bit_identical_to_serial() {
        use redundancy_core::obs::CollectorObserver;
        let campaign = Campaign::new(97);
        let serial_sink = Arc::new(CollectorObserver::new());
        let serial = campaign.run_traced(11, serial_sink.clone(), traced_trial);
        let serial_events = serial_sink.take();
        assert!(!serial_events.is_empty());
        for jobs in [1, 2, 8] {
            let sink = Arc::new(CollectorObserver::new());
            let parallel = campaign.run_traced_parallel(11, jobs, sink.clone(), traced_trial);
            assert_eq!(serial, parallel, "summary for jobs={jobs}");
            assert_eq!(serial_events, sink.take(), "stream for jobs={jobs}");
        }
    }

    #[test]
    fn streaming_merge_window_is_a_real_bound() {
        use redundancy_core::obs::CollectorObserver;
        // The traced loop debug-asserts that peak buffering stayed within
        // this window (and `obs::shard`'s tests pin the merger's
        // enforcement); the window itself must sit far below n.
        let campaign = Campaign::new(500);
        let window = merge_window(500, 8, chunk_size(500, 8));
        assert!(
            window > 0 && window < campaign.trials(),
            "window {window} must be a real bound below n={}",
            campaign.trials()
        );
        let sink = Arc::new(CollectorObserver::new());
        let summary = campaign.run_traced_parallel(13, 8, sink.clone(), traced_trial);
        // And the stream still matches the serial recording.
        let serial_sink = Arc::new(CollectorObserver::new());
        let serial = campaign.run_traced(13, serial_sink.clone(), traced_trial);
        assert_eq!(serial, summary);
        assert_eq!(serial_sink.take(), sink.take());
    }

    #[test]
    fn traced_parallel_splits_into_per_trial_forensics() {
        use crate::forensics::split_trials;
        use redundancy_core::obs::CollectorObserver;
        let campaign = Campaign::new(40);
        let sink = Arc::new(CollectorObserver::new());
        let _ = campaign.run_traced_parallel(21, 4, sink.clone(), traced_trial);
        let trials = split_trials(&sink.take());
        assert_eq!(trials.len(), 40);
        for (i, t) in trials.iter().enumerate() {
            assert_eq!(t.index, i as u64);
        }
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "redundancy_trial_{}_{}.ckpt",
            tag,
            std::process::id()
        ));
        p
    }

    #[test]
    fn traced_parallel_panic_propagates_without_deadlock() {
        use redundancy_core::obs::CollectorObserver;
        let campaign = Campaign::new(64);
        let sink = Arc::new(CollectorObserver::new());
        // Without the merger abort, workers that ran ahead of the dead
        // trial would block forever on the merge window here.
        let result = catch_unwind(AssertUnwindSafe(|| {
            campaign.run_traced_parallel(3, 4, sink.clone(), |ctx, seed, i| {
                assert!(i != 13, "trial bug");
                traced_trial(ctx, seed, i)
            })
        }));
        assert!(result.is_err());
        // The pool and a fresh merger keep working afterwards.
        let retry_sink = Arc::new(CollectorObserver::new());
        let retry = campaign.run_traced_parallel(3, 4, retry_sink.clone(), traced_trial);
        let serial_sink = Arc::new(CollectorObserver::new());
        let serial = campaign.run_traced(3, serial_sink.clone(), traced_trial);
        assert_eq!(serial, retry);
        assert_eq!(serial_sink.take(), retry_sink.take());
    }

    /// A traced trial that charges fuel (so chaos cancellation has a
    /// charge point to fire on) and consumes randomness. A failed charge
    /// makes it fail detectably, so a cancelled trial whose partial
    /// outcome were recorded would change the summary.
    fn charging_trial(ctx: &mut ExecContext, _seed: u64, i: usize) -> TrialOutcome {
        let span = ctx.obs_begin(|| SpanKind::Scope { name: "work" });
        let mut interrupted = false;
        for _ in 0..4 {
            interrupted |= ctx.charge(1).is_err();
        }
        let draw = ctx.rng().next_u64();
        ctx.obs_end(span, SpanStatus::Ok, Cost::ZERO.snapshot());
        if interrupted {
            return TrialOutcome::Detected { cost: Cost::ZERO };
        }
        synthetic_trial(draw, i)
    }

    /// The observer axis of the `execute` table.
    #[derive(Debug, Clone, Copy)]
    enum Observe {
        None,
        Disabled,
        Enabled,
    }

    /// The checkpoint axis of the `execute` table.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Resume {
        None,
        Fresh,
        AfterChaosKill,
    }

    const EXECUTE_SEED: u64 = 11;

    /// One `execute` attempt with a fresh sink, as a restarted process
    /// would have; returns the summary and the exported stream.
    fn attempt<F>(
        campaign: &Campaign,
        observe: Observe,
        spec: RunSpec<'_>,
        trial: F,
    ) -> std::thread::Result<(TrialSummary, String)>
    where
        F: Fn(&mut ExecContext, u64, usize) -> TrialOutcome + Sync,
    {
        use redundancy_core::obs::{to_jsonl, CollectorObserver, NoopObserver};
        let sink = Arc::new(CollectorObserver::new());
        let observer: Option<Arc<dyn Observer>> = match observe {
            Observe::None => None,
            Observe::Disabled => Some(Arc::new(NoopObserver)),
            Observe::Enabled => Some(sink.clone()),
        };
        let spec = RunSpec { observer, ..spec };
        catch_unwind(AssertUnwindSafe(|| {
            campaign.execute(EXECUTE_SEED, &spec, trial)
        }))
        .map(|summary| (summary.expect("checkpoint I/O"), to_jsonl(&sink.take())))
    }

    #[test]
    fn execute_matches_serial_references_for_every_spec() {
        use redundancy_core::obs::{to_jsonl, CollectorObserver};
        use std::sync::atomic::{AtomicUsize, Ordering};
        let campaign = Campaign::new(97);
        let untraced = campaign.run(EXECUTE_SEED, |seed, i| {
            charging_trial(&mut ExecContext::new(seed), seed, i)
        });
        let sink = Arc::new(CollectorObserver::new());
        let traced = campaign.run_traced(EXECUTE_SEED, sink.clone(), charging_trial);
        let traced_stream = to_jsonl(&sink.take());
        assert!(!traced_stream.is_empty());
        for observe in [Observe::None, Observe::Disabled, Observe::Enabled] {
            for resume in [Resume::None, Resume::Fresh, Resume::AfterChaosKill] {
                for jobs in [1usize, 2, 8] {
                    let cell = format!("{observe:?}/{resume:?}/jobs={jobs}");
                    let path = temp_path(&format!("execute_{observe:?}_{resume:?}_{jobs}"));
                    let _ = std::fs::remove_file(&path);
                    let checkpoint = CheckpointSpec::new(&path, 4);
                    // One-shot faults: cancel trial 20 on its third charge
                    // and kill the worker after trial 48.
                    let chaos = ChaosPlan::new(2)
                        .cancel_at_charge(20, 3)
                        .kill_after_trial(48);
                    let spec = RunSpec {
                        jobs,
                        observer: None,
                        checkpoint: (resume != Resume::None).then_some(&checkpoint),
                        chaos: (resume == Resume::AfterChaosKill).then_some(&chaos),
                    };
                    let ran = AtomicUsize::new(0);
                    let counted = |ctx: &mut ExecContext, seed: u64, i: usize| {
                        ran.fetch_add(1, Ordering::Relaxed);
                        charging_trial(ctx, seed, i)
                    };
                    let mut kills = 0;
                    let (summary, stream) = loop {
                        ran.store(0, Ordering::Relaxed);
                        match attempt(&campaign, observe, spec.clone(), counted) {
                            Ok(done) => break done,
                            Err(payload) => assert!(ChaosPlan::is_chaos_panic(&*payload), "{cell}"),
                        }
                        kills += 1;
                        assert!(kills <= 4, "{cell}: chaos never converged");
                    };
                    let (expected, expected_stream) = match observe {
                        Observe::Enabled => (&traced, traced_stream.as_str()),
                        Observe::None | Observe::Disabled => (&untraced, ""),
                    };
                    assert_eq!(expected, &summary, "summary of {cell}");
                    assert_eq!(expected_stream, stream, "stream of {cell}");
                    if resume == Resume::AfterChaosKill {
                        assert!(kills >= 1, "{cell}: no attempt was killed");
                        assert_eq!(chaos.charge_fuse(20), None, "{cell}: fuse never armed");
                        // Untraced runs keep committing around a killed
                        // trial and a serial traced run reaches it in
                        // order; a parallel traced run aborts its merge at
                        // the first kill and may have committed nothing.
                        if !matches!(observe, Observe::Enabled) || jobs == 1 {
                            assert!(
                                ran.load(Ordering::Relaxed) < campaign.trials(),
                                "{cell}: resume re-ran every trial"
                            );
                        }
                    }
                    if resume != Resume::None {
                        // A completed checkpoint replays summary and
                        // stream without executing a single trial.
                        let replayed = attempt(&campaign, observe, spec, |_, _, _| {
                            unreachable!("all trials are committed")
                        })
                        .expect("replay runs no trial");
                        assert_eq!((summary, stream), replayed, "replay of {cell}");
                    }
                    let _ = std::fs::remove_file(&path);
                }
            }
        }
    }

    #[test]
    fn design_cost_averaged() {
        let summary = Campaign::new(10).run(3, |_, _| TrialOutcome::Correct {
            cost: Cost {
                design_cost: 3.0,
                ..Cost::ZERO
            },
        });
        assert!((summary.design_cost - 3.0).abs() < 1e-9);
    }
}
