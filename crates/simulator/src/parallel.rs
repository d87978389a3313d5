//! Deterministic work sharding for embarrassingly parallel experiment
//! loads.
//!
//! Every helper here preserves *index order* in its results: work is
//! distributed across the persistent [`WorkerPool`], but outputs land in
//! the slot of their input index, so summaries computed from the
//! returned `Vec` are bitwise independent of the worker count and of OS
//! scheduling. [`Campaign::run_parallel`](crate::trial::Campaign::run_parallel)
//! and the experiment regenerators' `--jobs` knobs are built on these.
//!
//! Scheduling is **chunked**: workers claim contiguous runs of indices
//! from a shared cursor and write results through disjoint views of the
//! output buffer, so the per-index cost is one relaxed `fetch_add`
//! amortized over [`chunk_size`] indices and one unsynchronized slot
//! write — no per-slot locks anywhere. Heterogeneous task batches can
//! additionally opt into longest-task-first scheduling
//! ([`parallel_tasks_lpt`]) to cut tail latency.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use redundancy_core::obs::telemetry::{self, Counter, Timer};

use crate::pool::WorkerPool;

/// How many chunks each worker should get on average: > 1 so uneven
/// per-index costs rebalance dynamically, small enough that the cursor
/// stays cold.
const CHUNKS_PER_WORKER: usize = 4;

/// The number of worker threads to use by default: the hardware's
/// available parallelism, or 1 when it cannot be queried.
#[must_use]
pub fn available_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The chunk length [`parallel_indexed`] claims per cursor hit: sized
/// adaptively from `n / jobs` so each worker sees ~[`CHUNKS_PER_WORKER`]
/// chunks, never below 1.
#[must_use]
pub fn chunk_size(n: usize, jobs: usize) -> usize {
    (n / (jobs.max(1) * CHUNKS_PER_WORKER)).max(1)
}

/// A raw view of the output buffer that workers write through.
///
/// Chunk claiming guarantees every index is claimed by exactly one
/// worker, so concurrent writes never alias; the caller must not touch
/// the buffer until the region completes (the pool blocks until then).
struct SlotWriter<T>(*mut Option<T>);

// SAFETY: each worker writes a disjoint set of indices (enforced by the
// claiming cursor), and the buffer outlives the region because
// `WorkerPool::run_region` blocks until every worker is done.
unsafe impl<T: Send> Send for SlotWriter<T> {}
unsafe impl<T: Send> Sync for SlotWriter<T> {}

impl<T> SlotWriter<T> {
    /// Writes `value` into slot `i`.
    ///
    /// # Safety
    ///
    /// `i` must be in bounds and claimed by exactly one worker.
    unsafe fn set(&self, i: usize, value: T) {
        // The overwritten slot is always `None`, so no stale value drops.
        unsafe { *self.0.add(i) = Some(value) };
    }
}

/// Runs `f(0..n)` across at most `jobs` workers of the persistent pool,
/// returning the results in index order.
///
/// Workers claim *chunks* of [`chunk_size`] consecutive indices from a
/// shared cursor (dynamic load balancing with amortized claim cost), but
/// because results are written to their index's slot the output is
/// identical for any `jobs`, including 1. With `jobs <= 1` (or
/// `n <= 1`) everything runs inline on the calling thread.
///
/// # Panics
///
/// Propagates a panic from `f` on any worker (after the whole region
/// has quiesced).
pub fn parallel_indexed<T, F>(jobs: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let jobs = jobs.clamp(1, n.max(1));
    parallel_indexed_chunked(jobs, n, chunk_size(n, jobs), f)
}

/// Like [`parallel_indexed`] with an explicit chunk length (clamped to
/// at least 1). Chunks of `chunk >= n` degenerate to one chunk, which
/// runs inline.
pub fn parallel_indexed_chunked<T, F>(jobs: usize, n: usize, chunk: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    parallel_indexed_chunked_hooked(jobs, n, chunk, |_| {}, |(): &mut (), i| f(i))
}

/// Like [`parallel_indexed_chunked`] with a `before_chunk` hook invoked
/// with the chunk index right after a worker claims it, before any of
/// its items run, and a scratch value per participant. The simulator's
/// chaos harness injects deterministic scheduling delays here
/// ([`ChaosPlan::chunk_delay`]); the hook runs on the claiming worker's
/// thread and must not panic the schedule apart — results are
/// index-ordered regardless of how long any hook stalls.
///
/// Each participant — the calling thread, and each helper a pool worker
/// runs — starts from `S::default()` and hands the same scratch to `f`
/// for every index it runs, so buffers can be recycled across items with
/// no lock and no thread-local. The traced campaign runner keeps each
/// worker's trace there.
///
/// [`ChaosPlan::chunk_delay`]: crate::chaos::ChaosPlan::chunk_delay
pub fn parallel_indexed_chunked_hooked<T, S, F, H>(
    jobs: usize,
    n: usize,
    chunk: usize,
    before_chunk: H,
    f: F,
) -> Vec<T>
where
    T: Send,
    S: Default,
    F: Fn(&mut S, usize) -> T + Sync,
    H: Fn(usize) + Sync,
{
    let jobs = jobs.clamp(1, n.max(1));
    let chunk = chunk.max(1);
    let n_chunks = n.div_ceil(chunk.min(n.max(1)));
    // The calling thread is a participant, so `jobs` workers need
    // `jobs - 1` helpers — and never more than the extra chunks.
    let helpers = (jobs - 1).min(n_chunks.saturating_sub(1));
    if helpers == 0 {
        // Inline, chunk by chunk, so the hook fires exactly as it would
        // with workers (once per chunk, before its items). Claim latency
        // is not meaningful here (there is no contended cursor), but
        // claim/complete counts and busy time keep the flight recorder's
        // utilization view consistent across the two paths.
        let mut out = Vec::with_capacity(n);
        let mut scratch = S::default();
        for c in 0..n_chunks {
            telemetry::add(Counter::ChunksClaimed, 1);
            before_chunk(c);
            let run_timer = telemetry::timer_start();
            for i in c * chunk..((c + 1) * chunk).min(n) {
                out.push(f(&mut scratch, i));
            }
            if let Some(ns) = telemetry::timer_stop(Timer::ChunkRunNs, run_timer) {
                telemetry::add(Counter::WorkerBusyNs, ns);
            }
            telemetry::add(Counter::ChunksCompleted, 1);
        }
        return out;
    }
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let writer = SlotWriter(slots.as_mut_ptr());
    let cursor = AtomicUsize::new(0);
    WorkerPool::global().run_region(helpers, &|| {
        let mut scratch = S::default();
        loop {
            let claim_timer = telemetry::timer_start();
            let c = cursor.fetch_add(1, Ordering::Relaxed);
            if c >= n_chunks {
                break;
            }
            telemetry::timer_stop(Timer::ChunkClaimNs, claim_timer);
            telemetry::add(Counter::ChunksClaimed, 1);
            before_chunk(c);
            let start = c * chunk;
            let end = ((c + 1) * chunk).min(n);
            let run_timer = telemetry::timer_start();
            for i in start..end {
                let value = f(&mut scratch, i);
                // SAFETY: chunk `c` was claimed exactly once, so indices
                // `start..end` are written by this worker alone, in bounds.
                unsafe { writer.set(i, value) };
            }
            if let Some(ns) = telemetry::timer_stop(Timer::ChunkRunNs, run_timer) {
                telemetry::add(Counter::WorkerBusyNs, ns);
            }
            telemetry::add(Counter::ChunksCompleted, 1);
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every index was claimed"))
        .collect()
}

/// Runs a batch of heterogeneous tasks across at most `jobs` pool
/// workers, returning their results in task order.
///
/// The experiment regenerators use this to run independent table rows or
/// cells concurrently: each task owns its own seed-derived state, so the
/// rendered table is identical for any `jobs`.
pub fn parallel_tasks<T, F>(jobs: usize, tasks: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let order: Vec<usize> = (0..tasks.len()).collect();
    run_tasks_in_order(jobs, tasks, &order)
}

/// Like [`parallel_tasks`] with a cost hint per task, claimed in
/// longest-task-first (LPT) order: when row costs are heterogeneous
/// (e.g. Table 2's technique rows), starting the heaviest tasks first
/// keeps them off the tail of the schedule. Hints only order the
/// *claiming*; results still land in task order and are identical for
/// any `jobs` (ties claim in task order, so scheduling is deterministic
/// too).
pub fn parallel_tasks_lpt<T, F>(jobs: usize, tasks: Vec<(u64, F)>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let order = lpt_order(&tasks);
    let tasks: Vec<F> = tasks.into_iter().map(|(_, task)| task).collect();
    run_tasks_in_order(jobs, tasks, &order)
}

/// The order [`parallel_tasks_lpt`] claims tasks in: by descending cost
/// hint, ties in task order.
fn lpt_order<F>(tasks: &[(u64, F)]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..tasks.len()).collect();
    order.sort_by(|&a, &b| tasks[b].0.cmp(&tasks[a].0).then(a.cmp(&b)));
    order
}

/// Claims positions of `order` from a shared cursor (chunk = 1: task
/// batches are small and heterogeneous) and writes each task's result
/// into its original slot.
fn run_tasks_in_order<T, F>(jobs: usize, tasks: Vec<F>, order: &[usize]) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = tasks.len();
    let jobs = jobs.clamp(1, n.max(1));
    if jobs <= 1 {
        // Inline, in the same claim order as the parallel path (order
        // cannot change any task's result — tasks are independent — but
        // keeping it identical makes scheduling fully deterministic).
        let mut cells: Vec<Option<F>> = tasks.into_iter().map(Some).collect();
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        for &i in order {
            let task = cells[i].take().expect("each task runs once");
            slots[i] = Some(task());
        }
        return slots
            .into_iter()
            .map(|slot| slot.expect("every task ran"))
            .collect();
    }
    let task_cells: Vec<Mutex<Option<F>>> =
        tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let writer = SlotWriter(slots.as_mut_ptr());
    let cursor = AtomicUsize::new(0);
    let helpers = jobs - 1;
    WorkerPool::global().run_region(helpers, &|| loop {
        let p = cursor.fetch_add(1, Ordering::Relaxed);
        if p >= n {
            break;
        }
        let i = order[p];
        let task = task_cells[i]
            .lock()
            .expect("task lock never poisoned")
            .take()
            .expect("each task runs once");
        let value = task();
        // SAFETY: position `p` (hence slot `i`) is claimed exactly once.
        unsafe { writer.set(i, value) };
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every task was claimed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexed_results_are_in_order_for_any_job_count() {
        let expected: Vec<usize> = (0..97).map(|i| i * i).collect();
        for jobs in [1, 2, 3, 8, 200] {
            assert_eq!(
                parallel_indexed(jobs, 97, |i| i * i),
                expected,
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn indexed_handles_empty_and_single() {
        assert_eq!(parallel_indexed(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_indexed(4, 1, |i| i + 10), vec![10]);
    }

    #[test]
    fn explicit_chunk_of_at_least_n_runs_inline() {
        let expected: Vec<usize> = (0..10).map(|i| i + 1).collect();
        for chunk in [10, 11, 1000] {
            assert_eq!(
                parallel_indexed_chunked(8, 10, chunk, |i| i + 1),
                expected,
                "chunk={chunk}"
            );
        }
    }

    #[test]
    fn chunks_that_do_not_divide_n_cover_every_index() {
        // 97 indices in chunks of 7: 14 chunks, last one ragged (6).
        let expected: Vec<usize> = (0..97).map(|i| i * 3).collect();
        for jobs in [2, 5, 16] {
            assert_eq!(
                parallel_indexed_chunked(jobs, 97, 7, |i| i * 3),
                expected,
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn chunk_zero_is_clamped_to_one() {
        let expected: Vec<usize> = (0..13).collect();
        assert_eq!(parallel_indexed_chunked(4, 13, 0, |i| i), expected);
    }

    #[test]
    fn chunk_hook_fires_once_per_chunk_for_any_job_count() {
        for jobs in [1usize, 4] {
            let seen = Mutex::new(Vec::new());
            let out = parallel_indexed_chunked_hooked(
                jobs,
                10,
                3,
                |c| seen.lock().unwrap().push(c),
                |(): &mut (), i| i,
            );
            assert_eq!(out, (0..10).collect::<Vec<_>>());
            let mut seen = seen.into_inner().unwrap();
            seen.sort_unstable();
            assert_eq!(seen, vec![0, 1, 2, 3], "jobs={jobs}");
        }
    }

    #[test]
    fn each_participant_keeps_one_scratch_across_its_items() {
        // Each item reports how many items its participant's scratch has
        // seen, itself included: one participant numbers them all.
        let count = |seen: &mut usize, _: usize| {
            *seen += 1;
            *seen
        };
        let inline = parallel_indexed_chunked_hooked(1, 10, 3, |_| {}, count);
        assert_eq!(inline, (1..=10).collect::<Vec<_>>());
        // Several participants: each scratch counts from 1 again, so the
        // 1s count the participants that ran anything.
        let pooled = parallel_indexed_chunked_hooked(4, 40, 1, |_| {}, count);
        assert!(pooled.iter().all(|&n| (1..=40).contains(&n)));
        let starts = pooled.iter().filter(|&&n| n == 1).count();
        assert!((1..=4).contains(&starts), "{starts} fresh scratches");
    }

    #[test]
    fn chunk_size_is_adaptive_and_positive() {
        assert_eq!(chunk_size(1000, 8), 31); // 1000 / 32
        assert_eq!(chunk_size(1000, 1), 250);
        assert_eq!(chunk_size(3, 8), 1); // never below 1
        assert_eq!(chunk_size(0, 4), 1);
        assert_eq!(chunk_size(10, 0), 2); // jobs clamped to 1
    }

    #[test]
    fn tasks_preserve_order_and_run_once() {
        use std::sync::atomic::AtomicUsize;
        let runs = AtomicUsize::new(0);
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..20usize)
            .map(|i| {
                let runs = &runs;
                Box::new(move || {
                    runs.fetch_add(1, Ordering::Relaxed);
                    i * 3
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        let out = parallel_tasks(4, tasks);
        assert_eq!(out, (0..20).map(|i| i * 3).collect::<Vec<_>>());
        assert_eq!(runs.load(Ordering::Relaxed), 20);
    }

    #[test]
    fn lpt_tasks_return_results_in_task_order() {
        for jobs in [1usize, 2, 8] {
            let tasks: Vec<(u64, Box<dyn FnOnce() -> usize + Send>)> = (0..12usize)
                .map(|i| {
                    let cost = (i % 5) as u64 * 10;
                    (
                        cost,
                        Box::new(move || i * 7) as Box<dyn FnOnce() -> usize + Send>,
                    )
                })
                .collect();
            let out = parallel_tasks_lpt(jobs, tasks);
            assert_eq!(
                out,
                (0..12).map(|i| i * 7).collect::<Vec<_>>(),
                "jobs={jobs}"
            );
        }
    }

    /// Tasks with cost hints `costs` that log their index to `ran` and
    /// return it.
    fn logging_tasks<'a>(
        costs: &[u64],
        ran: &'a Mutex<Vec<usize>>,
    ) -> Vec<(u64, Box<dyn FnOnce() -> usize + Send + 'a>)> {
        costs
            .iter()
            .enumerate()
            .map(|(i, &cost)| {
                let task = move || {
                    ran.lock().unwrap().push(i);
                    i
                };
                (cost, Box::new(task) as Box<dyn FnOnce() -> usize + Send>)
            })
            .collect()
    }

    #[test]
    fn lpt_claims_heaviest_first() {
        let costs = [3u64, 50, 7, 50, 1];
        // Heaviest first; the two 50s tie and keep task order.
        let claim_order = vec![1, 3, 2, 0, 4];
        assert_eq!(
            lpt_order(&logging_tasks(&costs, &Mutex::new(Vec::new()))),
            claim_order
        );

        // Inline (jobs = 1), tasks run exactly in claim order.
        let ran = Mutex::new(Vec::new());
        assert_eq!(
            parallel_tasks_lpt(1, logging_tasks(&costs, &ran)),
            vec![0, 1, 2, 3, 4]
        );
        assert_eq!(ran.into_inner().unwrap(), claim_order);

        // On workers, the order tasks *run* in is up to the scheduler:
        // only task-order results and exactly-once execution are fixed.
        let ran = Mutex::new(Vec::new());
        assert_eq!(
            parallel_tasks_lpt(2, logging_tasks(&costs, &ran)),
            vec![0, 1, 2, 3, 4]
        );
        let mut ran = ran.into_inner().unwrap();
        ran.sort_unstable();
        assert_eq!(ran, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn available_jobs_is_positive() {
        assert!(available_jobs() >= 1);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        let _ = parallel_indexed(2, 8, |i| {
            if i == 5 {
                panic!("boom");
            }
            i
        });
    }

    #[test]
    #[should_panic(expected = "pooled boom")]
    fn panic_from_a_pooled_helper_propagates() {
        // Force the panicking index into a helper's chunk: chunk 1 with
        // many workers makes it overwhelmingly likely a pool thread hits
        // it; correctness (propagation) holds either way.
        let _ = parallel_indexed_chunked(8, 64, 1, |i| {
            if i == 63 {
                panic!("pooled boom");
            }
            i
        });
    }

    #[test]
    fn pool_survives_a_panicked_campaign() {
        let result = std::panic::catch_unwind(|| {
            parallel_indexed(4, 32, |i| {
                assert!(i != 17, "die");
                i
            })
        });
        assert!(result.is_err());
        // The shared pool keeps serving regions afterwards.
        let expected: Vec<usize> = (0..32).collect();
        assert_eq!(parallel_indexed(4, 32, |i| i), expected);
    }
}
