//! Experiment E19 (extension) — resumable campaigns: checkpoint
//! interval vs work lost to an injected kill.
//!
//! E17 measures the checkpoint-interval trade-off for a *simulated*
//! long-running computation; this experiment measures the same
//! trade-off for the campaign engine's own crash-only checkpointing
//! (`redundancy_sim::checkpoint`). A campaign is killed mid-run by a
//! scripted [`ChaosPlan`] worker panic, then resumed from its
//! checkpoint file: a small commit interval loses almost nothing to the
//! kill but pays a flush per few trials; a large interval flushes
//! rarely but forfeits every completed-yet-uncommitted trial. In every
//! cell the resumed summary must be **bit-identical** to an
//! uninterrupted run's — the sweep measures cost, never correctness.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use redundancy_core::cost::Cost;
use redundancy_core::obs::{to_jsonl, CollectorObserver};
use redundancy_sim::checkpoint::CheckpointSpec;
use redundancy_sim::table::Table;
use redundancy_sim::{parallel_tasks, Campaign, ChaosPlan, RunSpec, TrialOutcome};

/// A seed-driven synthetic trial with mixed dispositions and costs, so
/// any resume bug (re-run, skip, reorder) shifts the summary.
fn synthetic_trial(seed: u64, i: usize) -> TrialOutcome {
    let cost = Cost::of_invocation((seed % 97) + i as u64, (seed % 31) + 1);
    match seed % 5 {
        0 => TrialOutcome::Undetected { cost },
        1 | 2 => TrialOutcome::Detected { cost },
        _ => TrialOutcome::Correct { cost },
    }
}

/// A checkpoint path in the system temp directory that no other call in
/// this process shares: concurrent calls with equal arguments (parallel
/// tests, sweep cells) must not delete or resume each other's files.
fn unique_checkpoint_path(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let mut path = std::env::temp_dir();
    path.push(format!(
        "redundancy_{tag}_{}_{}.ckpt",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    // A crashed earlier process with the same id may have left one.
    let _ = std::fs::remove_file(&path);
    path
}

/// One cell of the interval sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResumeMeasurement {
    /// Commit interval (trials per flushed batch).
    pub interval: usize,
    /// Trials durably committed when the kill struck.
    pub committed_at_kill: usize,
    /// Trials that had *completed* before the kill but were lost with
    /// the un-flushed tail (`kill_at % interval`).
    pub finished_but_lost: usize,
    /// Trials the resumed run had to execute.
    pub rerun_trials: usize,
    /// Whether the resumed summary matched the uninterrupted run's
    /// bit for bit.
    pub identical: bool,
}

/// Kills a `trials`-trial campaign just before trial `kill_at`
/// (single worker, so completion order is index order — exactly a
/// process kill's semantics), resumes it, and reports what the commit
/// `interval` saved and what it cost.
///
/// # Panics
///
/// Panics if the checkpoint file cannot be created in the system temp
/// directory, or if the scripted kill does not fire.
#[must_use]
pub fn measure(trials: usize, seed: u64, interval: usize, kill_at: usize) -> ResumeMeasurement {
    let campaign = Campaign::new(trials);
    let clean = campaign.run_parallel(seed, 1, synthetic_trial);
    let path = unique_checkpoint_path("e19");
    let checkpoint = CheckpointSpec::new(&path, interval);
    let chaos = ChaosPlan::new(seed).kill_before_trial(kill_at);
    let spec = RunSpec {
        jobs: 1,
        checkpoint: Some(&checkpoint),
        chaos: Some(&chaos),
        ..RunSpec::default()
    };
    let killed = catch_unwind(AssertUnwindSafe(|| {
        campaign.execute(seed, &spec, |_, s, i| synthetic_trial(s, i))
    }));
    assert!(killed.is_err(), "the scripted kill must fire");
    let reruns = AtomicUsize::new(0);
    let resumed = campaign
        .execute(seed, &spec, |_, s, i| {
            reruns.fetch_add(1, Ordering::Relaxed);
            synthetic_trial(s, i)
        })
        .expect("resume succeeds");
    let _ = std::fs::remove_file(&path);
    let rerun_trials = reruns.load(Ordering::Relaxed);
    let committed_at_kill = trials - rerun_trials;
    ResumeMeasurement {
        interval,
        committed_at_kill,
        finished_but_lost: kill_at - committed_at_kill,
        rerun_trials,
        identical: clean == resumed,
    }
}

/// Builds the E19 table: work lost per checkpoint interval, with the
/// interval sweep sharded across up to `jobs` worker threads; each cell
/// runs its own single-worker campaign on its own checkpoint file, so the
/// table is identical for any `jobs`.
#[must_use]
pub fn run(trials: usize, seed: u64, jobs: usize) -> Table {
    let trials = trials.max(8);
    let kill_at = trials * 3 / 4;
    let mut intervals: Vec<usize> = [1, 2, 8, 32, 128, trials]
        .into_iter()
        .filter(|&i| i <= trials)
        .collect();
    intervals.dedup();
    let tasks: Vec<_> = intervals
        .iter()
        .map(|&interval| move || measure(trials, seed, interval, kill_at))
        .collect();
    let mut table = Table::new(&[
        "commit interval",
        "committed at kill",
        "finished but lost",
        "re-run on resume",
        "flush batches",
        "summary identical",
    ]);
    for m in parallel_tasks(jobs, tasks) {
        table.row_owned(vec![
            m.interval.to_string(),
            m.committed_at_kill.to_string(),
            m.finished_but_lost.to_string(),
            m.rerun_trials.to_string(),
            (m.committed_at_kill / m.interval).to_string(),
            if m.identical { "yes" } else { "NO" }.to_owned(),
        ]);
    }
    table
}

/// The chaos smoke check behind `make chaos-smoke`: a **traced**
/// campaign is killed repeatedly (worker panic, scripted mid-trial
/// cancellation, delayed chunks) and resumed until it completes, each
/// attempt with a fresh sink as a process restart would have; the final
/// event stream must serialize to exactly the bytes of an uninterrupted
/// serial recording. Returns the number of killed attempts.
///
/// # Panics
///
/// Panics if the resumed summary or stream differ from the
/// uninterrupted run, if a kill never fires, or if resumption does not
/// converge within a handful of attempts.
#[must_use]
pub fn chaos_smoke(trials: usize, seed: u64, jobs: usize) -> usize {
    let trials = trials.max(16);
    let campaign = Campaign::new(trials);
    let trial = |ctx: &mut redundancy_core::context::ExecContext, _seed: u64, i: usize| {
        for _ in 0..4 {
            let _ = ctx.charge(1);
        }
        let draw = ctx.rng().next_u64();
        synthetic_trial(draw, i)
    };
    let clean_sink = Arc::new(CollectorObserver::new());
    let clean = campaign.run_traced(seed, clean_sink.clone(), trial);
    let clean_stream = to_jsonl(&clean_sink.take());

    let path = unique_checkpoint_path("chaos_smoke");
    let checkpoint = CheckpointSpec::new(&path, 4);
    let chaos = ChaosPlan::new(seed)
        .kill_before_trial(trials / 3)
        .kill_after_trial(trials / 2)
        .cancel_at_charge(trials * 2 / 3, 3)
        .delay_chunks(0.2, 50);
    let mut kills = 0;
    let (resumed, stream) = loop {
        assert!(kills <= 4, "chaos resumption never converged");
        let sink = Arc::new(CollectorObserver::new());
        let spec = RunSpec {
            jobs,
            observer: Some(sink.clone()),
            checkpoint: Some(&checkpoint),
            chaos: Some(&chaos),
        };
        let attempt = catch_unwind(AssertUnwindSafe(|| campaign.execute(seed, &spec, trial)));
        match attempt {
            Ok(summary) => break (summary.expect("checkpoint io"), to_jsonl(&sink.take())),
            Err(payload) => {
                assert!(
                    ChaosPlan::is_chaos_panic(&*payload),
                    "only scripted faults may kill the campaign"
                );
                kills += 1;
            }
        }
    };
    let _ = std::fs::remove_file(&path);
    assert!(kills >= 1, "no scripted kill fired");
    assert_eq!(clean, resumed, "resumed summary differs from clean run");
    assert_eq!(
        clean_stream, stream,
        "resumed stream is not byte-identical to the clean recording"
    );
    kills
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEED: u64 = 0xe19;

    #[test]
    fn committed_at_kill_is_the_floor_interval_multiple() {
        for interval in [1usize, 4, 16] {
            let m = measure(64, SEED, interval, 48);
            assert_eq!(m.committed_at_kill, 48 / interval * interval);
            assert_eq!(m.finished_but_lost, 48 % interval);
            assert_eq!(m.rerun_trials, 64 - m.committed_at_kill);
            assert!(m.identical, "interval={interval}");
        }
    }

    #[test]
    fn smaller_intervals_lose_less_finished_work() {
        let fine = measure(64, SEED, 2, 47);
        let coarse = measure(64, SEED, 32, 47);
        assert!(fine.finished_but_lost < coarse.finished_but_lost);
        assert!(fine.committed_at_kill > coarse.committed_at_kill);
    }

    #[test]
    fn concurrent_measurements_with_equal_arguments_do_not_collide() {
        // Calls with equal arguments must not share a checkpoint file,
        // or they delete or resume each other's progress.
        const CALLS: usize = 8;
        let start = std::sync::Barrier::new(CALLS);
        std::thread::scope(|scope| {
            let calls: Vec<_> = (0..CALLS)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        measure(512, SEED, 4, 384)
                    })
                })
                .collect();
            for call in calls {
                let m = call.join().expect("measure completes");
                assert_eq!(m.committed_at_kill, 384);
                assert!(m.identical);
            }
        });
    }

    #[test]
    fn table_renders_with_identical_summaries_everywhere() {
        let table = run(64, SEED, 1);
        let rendered = table.to_string();
        assert!(rendered.contains("yes"));
        assert!(!rendered.contains("NO"));
    }

    #[test]
    fn table_is_identical_for_any_job_count() {
        crate::assert_jobs_invariant!(|jobs| run(32, SEED, jobs));
    }

    #[test]
    fn chaos_smoke_converges_byte_identically() {
        assert!(chaos_smoke(60, SEED, 4) >= 1);
    }
}
