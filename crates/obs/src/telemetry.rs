//! Lock-free campaign telemetry: the flight recorder's data plane.
//!
//! The Monte-Carlo engine (worker pool, chunked claiming, streaming
//! merge, checkpoints, chaos) needs counters and latency histograms that
//! can be bumped from the hottest paths in the workspace — inside trials
//! that cost a few hundred nanoseconds — without a `Mutex` anywhere near
//! the write side. This module provides them:
//!
//! - every recording thread owns an `Arc<`[`TelemetryShard`]`>` of
//!   relaxed atomics (registered once, cached in a thread-local) that
//!   only it ever writes, so a counter bump is a plain relaxed
//!   load + store — no locked read-modify-write on the record path;
//! - recording is gated on a single process-wide `AtomicBool`: with the
//!   recorder off, every hook is one relaxed load and a branch — no
//!   clock reads, no shard lookup;
//! - aggregation walks the shard registry *on demand*
//!   ([`Telemetry::snapshot`]) and sums into plain [`Histogram`]s, so
//!   readers (the background monitor, exporters) never slow writers.
//!
//! The counter and timer sets are closed enums rather than string keys:
//! shards are fixed-size arrays indexed by discriminant, which is what
//! keeps the hot path free of hashing and allocation.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::metrics::Histogram;

/// Fixed upper bucket bounds (nanoseconds) for all runtime-profiling
/// histograms: ~4× steps from 1 µs to 1 s. Sub-microsecond samples land
/// in the first bucket; multi-second stalls land in the overflow bucket
/// (whose observed max is still tracked).
pub const NS_BUCKETS: &[u64] = &[
    1_000,
    4_000,
    16_000,
    64_000,
    256_000,
    1_000_000,
    4_000_000,
    16_000_000,
    64_000_000,
    256_000_000,
    1_000_000_000,
];

/// Fixed upper bucket bounds for *depth* histograms (queue occupancy
/// sampled at enqueue time): powers of two from 1 to 1024. Same ladder
/// length as [`NS_BUCKETS`] so every histogram shard stays one fixed-size
/// array regardless of which ladder a timer uses.
pub const DEPTH_BUCKETS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1_024];

/// A monotonic engine counter. Each variant is one metric; see
/// [`Counter::name`] for the export name and [`Counter::help`] for what
/// it counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Counter {
    /// Trials campaigns have committed to run (added up front per run).
    TrialsScheduled,
    /// Trials that delivered a correct result.
    TrialsCorrect,
    /// Trials that failed silently (undetected).
    TrialsUndetected,
    /// Trials that failed fail-stop (detected).
    TrialsDetected,
    /// Work chunks claimed from scheduling cursors.
    ChunksClaimed,
    /// Work chunks fully executed (claimed − completed ≈ busy workers).
    ChunksCompleted,
    /// Parallel regions submitted to the worker pool.
    PoolRegions,
    /// Worker panics caught by the pool (first payload kept per region).
    PoolPanicsCaught,
    /// Worker panics beyond the kept one, suppressed with a count.
    PoolPanicsSuppressed,
    /// Nanoseconds workers spent executing claimed chunks.
    WorkerBusyNs,
    /// Nanoseconds pool workers spent parked waiting for work.
    WorkerIdleNs,
    /// Times a traced-campaign submitter blocked on the merge window.
    MergerStalls,
    /// Trial shards forwarded by streaming mergers.
    MergerTrialsForwarded,
    /// Checkpoint batches durably flushed.
    CheckpointCommits,
    /// Trials committed across all checkpoint flushes.
    CheckpointTrialsCommitted,
    /// Scripted chaos worker kills that fired.
    ChaosKills,
    /// Scripted chaos cancel fuses that tripped mid-trial.
    ChaosCancels,
    /// Scripted chaos scheduling delays injected into chunks.
    ChaosDelays,
    /// Pattern runs recorded by the Figure-1 engines.
    PatternRuns,
    /// Pattern alternatives that actually executed.
    VariantsExecuted,
    /// Pattern alternatives skipped because the verdict was fixed.
    VariantsSkipped,
    /// Pattern alternatives cooperatively cancelled mid-flight.
    VariantsCancelled,
    /// Requests that arrived at the service event-loop runtime.
    ServiceArrivals,
    /// Requests admitted into execution (arrived − admitted ≈ waiting).
    ServiceAdmitted,
    /// Requests shed at admission because the queue was full.
    ServiceRejected,
    /// Requests that completed with an acceptable response.
    ServiceOk,
    /// Requests that exhausted every attempt and failed.
    ServiceFailed,
    /// Requests abandoned because their deadline budget expired.
    ServiceDeadlineExceeded,
    /// Requests parked in the bounded backpressure queue.
    ServiceEnqueued,
    /// Requests released from the backpressure queue into execution.
    ServiceDequeued,
    /// Hedge (duplicate) attempts fired by the hedged policy.
    ServiceHedgesFired,
    /// Requests whose winning response came from a hedge attempt.
    ServiceHedgesWon,
    /// Outstanding attempts cancelled when a sibling won first.
    ServiceHedgesCancelled,
    /// Sequential failover attempts fired after a primary failure.
    ServiceFailovers,
    /// Converter operation lookups that fell through unmapped.
    ServiceConverterPassthrough,
    /// Per-shard event loops launched by the sharded runtime.
    ServiceShardRuns,
    /// Circuit breakers that tripped Closed → Open.
    ServiceBreakerOpens,
    /// Circuit breakers that moved Open → HalfOpen after cooldown.
    ServiceBreakerHalfOpens,
    /// Circuit breakers that closed after successful half-open probes.
    ServiceBreakerCloses,
    /// Provider rotation slots skipped because the circuit refused.
    ServiceBreakerSkips,
    /// Requests shed at arrival because every circuit was open.
    ServiceBreakerShed,
    /// Individual attempts that completed unsuccessfully.
    ServiceAttemptsFailed,
}

impl Counter {
    /// Every counter, in declaration (= shard index) order.
    pub const ALL: [Counter; 42] = [
        Counter::TrialsScheduled,
        Counter::TrialsCorrect,
        Counter::TrialsUndetected,
        Counter::TrialsDetected,
        Counter::ChunksClaimed,
        Counter::ChunksCompleted,
        Counter::PoolRegions,
        Counter::PoolPanicsCaught,
        Counter::PoolPanicsSuppressed,
        Counter::WorkerBusyNs,
        Counter::WorkerIdleNs,
        Counter::MergerStalls,
        Counter::MergerTrialsForwarded,
        Counter::CheckpointCommits,
        Counter::CheckpointTrialsCommitted,
        Counter::ChaosKills,
        Counter::ChaosCancels,
        Counter::ChaosDelays,
        Counter::PatternRuns,
        Counter::VariantsExecuted,
        Counter::VariantsSkipped,
        Counter::VariantsCancelled,
        Counter::ServiceArrivals,
        Counter::ServiceAdmitted,
        Counter::ServiceRejected,
        Counter::ServiceOk,
        Counter::ServiceFailed,
        Counter::ServiceDeadlineExceeded,
        Counter::ServiceEnqueued,
        Counter::ServiceDequeued,
        Counter::ServiceHedgesFired,
        Counter::ServiceHedgesWon,
        Counter::ServiceHedgesCancelled,
        Counter::ServiceFailovers,
        Counter::ServiceConverterPassthrough,
        Counter::ServiceShardRuns,
        Counter::ServiceBreakerOpens,
        Counter::ServiceBreakerHalfOpens,
        Counter::ServiceBreakerCloses,
        Counter::ServiceBreakerSkips,
        Counter::ServiceBreakerShed,
        Counter::ServiceAttemptsFailed,
    ];

    /// Number of counters (shard array length).
    pub const COUNT: usize = Counter::ALL.len();

    /// The snake-case export name (without any exporter prefix/suffix).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Counter::TrialsScheduled => "trials_scheduled",
            Counter::TrialsCorrect => "trials_correct",
            Counter::TrialsUndetected => "trials_undetected",
            Counter::TrialsDetected => "trials_detected",
            Counter::ChunksClaimed => "chunks_claimed",
            Counter::ChunksCompleted => "chunks_completed",
            Counter::PoolRegions => "pool_regions",
            Counter::PoolPanicsCaught => "pool_panics_caught",
            Counter::PoolPanicsSuppressed => "pool_panics_suppressed",
            Counter::WorkerBusyNs => "worker_busy_ns",
            Counter::WorkerIdleNs => "worker_idle_ns",
            Counter::MergerStalls => "merger_stalls",
            Counter::MergerTrialsForwarded => "merger_trials_forwarded",
            Counter::CheckpointCommits => "checkpoint_commits",
            Counter::CheckpointTrialsCommitted => "checkpoint_trials_committed",
            Counter::ChaosKills => "chaos_kills",
            Counter::ChaosCancels => "chaos_cancels",
            Counter::ChaosDelays => "chaos_delays",
            Counter::PatternRuns => "pattern_runs",
            Counter::VariantsExecuted => "variants_executed",
            Counter::VariantsSkipped => "variants_skipped",
            Counter::VariantsCancelled => "variants_cancelled",
            Counter::ServiceArrivals => "service_arrivals",
            Counter::ServiceAdmitted => "service_admitted",
            Counter::ServiceRejected => "service_rejected",
            Counter::ServiceOk => "service_ok",
            Counter::ServiceFailed => "service_failed",
            Counter::ServiceDeadlineExceeded => "service_deadline_exceeded",
            Counter::ServiceEnqueued => "service_enqueued",
            Counter::ServiceDequeued => "service_dequeued",
            Counter::ServiceHedgesFired => "service_hedges_fired",
            Counter::ServiceHedgesWon => "service_hedges_won",
            Counter::ServiceHedgesCancelled => "service_hedges_cancelled",
            Counter::ServiceFailovers => "service_failovers",
            Counter::ServiceConverterPassthrough => "service_converter_passthrough",
            Counter::ServiceShardRuns => "service_shard_runs",
            Counter::ServiceBreakerOpens => "service_breaker_opens",
            Counter::ServiceBreakerHalfOpens => "service_breaker_half_opens",
            Counter::ServiceBreakerCloses => "service_breaker_closes",
            Counter::ServiceBreakerSkips => "service_breaker_skips",
            Counter::ServiceBreakerShed => "service_breaker_shed",
            Counter::ServiceAttemptsFailed => "service_attempts_failed",
        }
    }

    /// One-line description (the Prometheus `# HELP` text).
    #[must_use]
    pub fn help(self) -> &'static str {
        match self {
            Counter::TrialsScheduled => "Trials campaigns committed to run",
            Counter::TrialsCorrect => "Trials that delivered a correct result",
            Counter::TrialsUndetected => "Trials that failed without detection",
            Counter::TrialsDetected => "Trials that failed fail-stop",
            Counter::ChunksClaimed => "Work chunks claimed from scheduling cursors",
            Counter::ChunksCompleted => "Work chunks fully executed",
            Counter::PoolRegions => "Parallel regions submitted to the worker pool",
            Counter::PoolPanicsCaught => "Worker panics caught by the pool",
            Counter::PoolPanicsSuppressed => "Worker panics suppressed beyond the kept payload",
            Counter::WorkerBusyNs => "Nanoseconds workers spent executing chunks",
            Counter::WorkerIdleNs => "Nanoseconds pool workers spent waiting for work",
            Counter::MergerStalls => "Submitters blocked on the streaming-merge window",
            Counter::MergerTrialsForwarded => "Trial shards forwarded by streaming mergers",
            Counter::CheckpointCommits => "Checkpoint batches durably flushed",
            Counter::CheckpointTrialsCommitted => "Trials committed by checkpoint flushes",
            Counter::ChaosKills => "Scripted chaos worker kills fired",
            Counter::ChaosCancels => "Scripted chaos cancel fuses tripped",
            Counter::ChaosDelays => "Scripted chaos chunk delays injected",
            Counter::PatternRuns => "Pattern runs recorded by the Figure-1 engines",
            Counter::VariantsExecuted => "Pattern alternatives executed",
            Counter::VariantsSkipped => "Pattern alternatives skipped by early exit",
            Counter::VariantsCancelled => "Pattern alternatives cancelled mid-flight",
            Counter::ServiceArrivals => "Requests arrived at the service runtime",
            Counter::ServiceAdmitted => "Requests admitted into execution",
            Counter::ServiceRejected => "Requests shed at admission (queue full)",
            Counter::ServiceOk => "Requests completed with an acceptable response",
            Counter::ServiceFailed => "Requests that exhausted every attempt",
            Counter::ServiceDeadlineExceeded => "Requests abandoned past their deadline budget",
            Counter::ServiceEnqueued => "Requests parked in the backpressure queue",
            Counter::ServiceDequeued => "Requests released from the backpressure queue",
            Counter::ServiceHedgesFired => "Hedge attempts fired by the hedged policy",
            Counter::ServiceHedgesWon => "Requests won by a hedge attempt",
            Counter::ServiceHedgesCancelled => "Attempts cancelled after a sibling won",
            Counter::ServiceFailovers => "Sequential failover attempts fired",
            Counter::ServiceConverterPassthrough => "Converter operation lookups left unmapped",
            Counter::ServiceShardRuns => "Per-shard event loops launched",
            Counter::ServiceBreakerOpens => "Circuit breakers tripped open",
            Counter::ServiceBreakerHalfOpens => "Circuit breakers entering half-open probing",
            Counter::ServiceBreakerCloses => "Circuit breakers closed after probes",
            Counter::ServiceBreakerSkips => "Rotation slots skipped on an open circuit",
            Counter::ServiceBreakerShed => "Requests shed with every circuit open",
            Counter::ServiceAttemptsFailed => "Individual attempts completed unsuccessfully",
        }
    }
}

/// A wall-clock latency histogram (nanosecond samples over
/// [`NS_BUCKETS`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Timer {
    /// Duration of one trial (sampled — see the campaign runner).
    TrialNs,
    /// Latency of claiming a chunk from the scheduling cursor.
    ChunkClaimNs,
    /// Duration of executing one claimed chunk.
    ChunkRunNs,
    /// Time a submitter spent blocked on the streaming-merge window.
    MergerStallNs,
    /// Duration of one checkpoint batch write+flush (commit lag).
    CheckpointCommitNs,
    /// Virtual-time end-to-end request latency in the service runtime.
    ServiceLatencyNs,
    /// Virtual time requests spent parked in the backpressure queue.
    ServiceQueueWaitNs,
    /// Backpressure queue depth sampled at each enqueue
    /// ([`DEPTH_BUCKETS`] ladder, not nanoseconds).
    ServiceQueueDepth,
    /// Virtual time a circuit breaker spent Open before closing again.
    ServiceBreakerOpenNs,
}

impl Timer {
    /// Every timer, in declaration (= shard index) order.
    pub const ALL: [Timer; 9] = [
        Timer::TrialNs,
        Timer::ChunkClaimNs,
        Timer::ChunkRunNs,
        Timer::MergerStallNs,
        Timer::CheckpointCommitNs,
        Timer::ServiceLatencyNs,
        Timer::ServiceQueueWaitNs,
        Timer::ServiceQueueDepth,
        Timer::ServiceBreakerOpenNs,
    ];

    /// Number of timers (shard array length).
    pub const COUNT: usize = Timer::ALL.len();

    /// The snake-case export name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Timer::TrialNs => "trial_ns",
            Timer::ChunkClaimNs => "chunk_claim_ns",
            Timer::ChunkRunNs => "chunk_run_ns",
            Timer::MergerStallNs => "merger_stall_ns",
            Timer::CheckpointCommitNs => "checkpoint_commit_ns",
            Timer::ServiceLatencyNs => "service_latency_ns",
            Timer::ServiceQueueWaitNs => "service_queue_wait_ns",
            Timer::ServiceQueueDepth => "service_queue_depth",
            Timer::ServiceBreakerOpenNs => "service_breaker_open_ns",
        }
    }

    /// The bucket ladder this timer's histogram uses. All latency timers
    /// share [`NS_BUCKETS`]; occupancy gauges like queue depth use
    /// [`DEPTH_BUCKETS`]. Both ladders have the same length, which is
    /// what keeps [`TelemetryShard`] a fixed-size array of fixed-size
    /// histograms.
    #[must_use]
    pub fn buckets(self) -> &'static [u64] {
        match self {
            Timer::ServiceQueueDepth => DEPTH_BUCKETS,
            _ => NS_BUCKETS,
        }
    }

    /// One-line description (the Prometheus `# HELP` text).
    #[must_use]
    pub fn help(self) -> &'static str {
        match self {
            Timer::TrialNs => "Wall-clock duration of sampled trials",
            Timer::ChunkClaimNs => "Latency of claiming a scheduling chunk",
            Timer::ChunkRunNs => "Wall-clock duration of executing one chunk",
            Timer::MergerStallNs => "Time submitters blocked on the merge window",
            Timer::CheckpointCommitNs => "Duration of checkpoint batch commits",
            Timer::ServiceLatencyNs => "Virtual end-to-end service request latency",
            Timer::ServiceQueueWaitNs => "Virtual time requests waited in the queue",
            Timer::ServiceQueueDepth => "Backpressure queue depth at enqueue",
            Timer::ServiceBreakerOpenNs => "Virtual time circuits spent open before closing",
        }
    }
}

/// Single-writer increment: a relaxed load plus a relaxed store instead
/// of a `fetch_add`. Shards are written only by their owning thread (one
/// shard per recording thread, cached thread-locally), so the
/// read-modify-write needs no atomicity — and skipping the locked RMW
/// keeps the monitored hot path to plain loads and stores. Readers
/// aggregating concurrently may miss the very latest increment, which a
/// monitor snapshot tolerates by design.
#[inline]
fn bump(cell: &AtomicU64, delta: u64) {
    cell.store(
        cell.load(Ordering::Relaxed).wrapping_add(delta),
        Ordering::Relaxed,
    );
}

// Every bucket ladder must fit the fixed-size shard arrays.
const _: () = assert!(DEPTH_BUCKETS.len() == NS_BUCKETS.len());

/// One histogram of relaxed atomics over an 11-rung bucket ladder (the
/// ladder itself — [`NS_BUCKETS`] or [`DEPTH_BUCKETS`] — is supplied at
/// record/aggregate time via [`Timer::buckets`]).
#[derive(Debug)]
struct AtomicHistogram {
    buckets: [AtomicU64; NS_BUCKETS.len()],
    overflow: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl AtomicHistogram {
    fn new() -> Self {
        AtomicHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            overflow: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    #[inline]
    fn record(&self, value: u64, bounds: &[u64]) {
        let bucket = match bounds.iter().position(|&b| value <= b) {
            Some(i) => &self.buckets[i],
            None => &self.overflow,
        };
        bump(bucket, 1);
        bump(&self.sum, value);
        if value < self.min.load(Ordering::Relaxed) {
            self.min.store(value, Ordering::Relaxed);
        }
        if value > self.max.load(Ordering::Relaxed) {
            self.max.store(value, Ordering::Relaxed);
        }
    }

    fn reset(&self) {
        for bucket in &self.buckets {
            bucket.store(0, Ordering::Relaxed);
        }
        self.overflow.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// One recording thread's slice of the telemetry: fixed arrays of
/// relaxed atomics, no locks, no allocation after construction.
///
/// Shards are handed out by [`Telemetry::register_shard`]; each shard
/// is written **only by the thread that registered it** (the free
/// functions below enforce this via a thread-local cache), readers sum
/// across all registered shards. That single-writer discipline is what
/// lets the write path use plain relaxed load + store (`bump`) instead
/// of locked read-modify-writes, and relaxed ordering is sufficient —
/// every metric is a commutative sum, so a snapshot is "some recent
/// total" rather than a linearizable cut, which is all a monitor needs.
#[derive(Debug)]
pub struct TelemetryShard {
    counters: [AtomicU64; Counter::COUNT],
    timers: [AtomicHistogram; Timer::COUNT],
}

impl TelemetryShard {
    fn new() -> Self {
        TelemetryShard {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            timers: std::array::from_fn(|_| AtomicHistogram::new()),
        }
    }

    /// Adds `delta` to `counter` (relaxed single-writer load + store:
    /// a shard must only ever be written by the thread that registered
    /// it).
    #[inline]
    pub fn add(&self, counter: Counter, delta: u64) {
        bump(&self.counters[counter as usize], delta);
    }

    /// Records a sample into `timer`'s histogram (relaxed), bucketed on
    /// that timer's own ladder ([`Timer::buckets`]).
    #[inline]
    pub fn observe_ns(&self, timer: Timer, ns: u64) {
        self.timers[timer as usize].record(ns, timer.buckets());
    }

    fn reset(&self) {
        for counter in &self.counters {
            counter.store(0, Ordering::Relaxed);
        }
        for timer in &self.timers {
            timer.reset();
        }
    }
}

/// A telemetry registry: the enabled gate plus every shard handed out so
/// far. Most code uses the process-wide [`Telemetry::global`] instance
/// through the free functions below; independent instances exist for
/// tests.
#[derive(Debug)]
pub struct Telemetry {
    enabled: AtomicBool,
    shards: Mutex<Vec<Arc<TelemetryShard>>>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

/// The process-wide registry behind [`Telemetry::global`].
static GLOBAL: OnceLock<Telemetry> = OnceLock::new();

/// Mirror of the *global* registry's enabled flag as a plain static:
/// the free-function hooks gate on this fixed address instead of
/// dereferencing the `OnceLock` behind [`Telemetry::global`] first, so
/// the recorder-off path really is a single relaxed load. Kept in sync
/// by [`Telemetry::set_enabled`].
static GLOBAL_ENABLED: AtomicBool = AtomicBool::new(false);

impl Telemetry {
    /// Creates a disabled registry with no shards.
    #[must_use]
    pub fn new() -> Self {
        Telemetry {
            enabled: AtomicBool::new(false),
            shards: Mutex::new(Vec::new()),
        }
    }

    /// The process-wide registry (disabled until something — typically a
    /// `CampaignMonitor` — switches it on).
    #[must_use]
    #[inline]
    pub fn global() -> &'static Telemetry {
        GLOBAL.get_or_init(Telemetry::new)
    }

    /// Whether recording is on (one relaxed load — this is the whole
    /// cost of every telemetry hook while the recorder is off).
    #[must_use]
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Switches recording on or off. Affects only future hook calls;
    /// already-recorded values stay in the shards.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
        if GLOBAL
            .get()
            .is_some_and(|global| std::ptr::eq(self, global))
        {
            GLOBAL_ENABLED.store(on, Ordering::Relaxed);
        }
    }

    /// Registers a new shard (the only lock in the system, taken once
    /// per recording thread, never on the record path).
    #[must_use]
    pub fn register_shard(&self) -> Arc<TelemetryShard> {
        let shard = Arc::new(TelemetryShard::new());
        self.shards
            .lock()
            .expect("telemetry shard registry lock never poisoned")
            .push(Arc::clone(&shard));
        shard
    }

    /// Zeroes every registered shard in place (shards stay registered —
    /// threads keep their cached references). Concurrent writers may
    /// smear a few counts across the reset boundary; call it between
    /// campaigns, not during one, when exact zeros matter.
    pub fn reset(&self) {
        let shards = self
            .shards
            .lock()
            .expect("telemetry shard registry lock never poisoned");
        for shard in shards.iter() {
            shard.reset();
        }
    }

    /// Sums every shard into one consistent-enough snapshot (each cell
    /// is read once, relaxed; see [`TelemetryShard`] for why that is the
    /// right contract here).
    #[must_use]
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let shards = self
            .shards
            .lock()
            .expect("telemetry shard registry lock never poisoned");
        let mut counters = [0u64; Counter::COUNT];
        for shard in shards.iter() {
            for (total, cell) in counters.iter_mut().zip(shard.counters.iter()) {
                *total = total.wrapping_add(cell.load(Ordering::Relaxed));
            }
        }
        let timers = Timer::ALL
            .iter()
            .map(|&timer| {
                let mut bucket_counts = vec![0u64; timer.buckets().len()];
                let (mut overflow, mut sum) = (0u64, 0u64);
                let (mut min, mut max) = (u64::MAX, 0u64);
                for shard in shards.iter() {
                    let hist = &shard.timers[timer as usize];
                    for (total, cell) in bucket_counts.iter_mut().zip(hist.buckets.iter()) {
                        *total += cell.load(Ordering::Relaxed);
                    }
                    overflow += hist.overflow.load(Ordering::Relaxed);
                    sum = sum.saturating_add(hist.sum.load(Ordering::Relaxed));
                    min = min.min(hist.min.load(Ordering::Relaxed));
                    max = max.max(hist.max.load(Ordering::Relaxed));
                }
                Histogram::from_parts(timer.buckets(), bucket_counts, overflow, sum, min, max)
            })
            .collect();
        TelemetrySnapshot { counters, timers }
    }
}

/// A point-in-time aggregation of every counter and timer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    counters: [u64; Counter::COUNT],
    timers: Vec<Histogram>,
}

impl TelemetrySnapshot {
    /// The aggregated value of `counter`.
    #[must_use]
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize]
    }

    /// The aggregated histogram of `timer`.
    #[must_use]
    pub fn timer(&self, timer: Timer) -> &Histogram {
        &self.timers[timer as usize]
    }

    /// Every counter with its value, in declaration order.
    pub fn counters(&self) -> impl Iterator<Item = (Counter, u64)> + '_ {
        Counter::ALL.iter().map(|&c| (c, self.counter(c)))
    }

    /// Every timer with its histogram, in declaration order.
    pub fn timers(&self) -> impl Iterator<Item = (Timer, &Histogram)> + '_ {
        Timer::ALL.iter().map(|&t| (t, self.timer(t)))
    }

    /// Trials that finished, whatever their disposition.
    #[must_use]
    pub fn trials_completed(&self) -> u64 {
        self.counter(Counter::TrialsCorrect)
            + self.counter(Counter::TrialsUndetected)
            + self.counter(Counter::TrialsDetected)
    }

    /// Chunks claimed but not yet completed ≈ workers currently busy.
    #[must_use]
    pub fn workers_busy(&self) -> u64 {
        self.counter(Counter::ChunksClaimed)
            .saturating_sub(self.counter(Counter::ChunksCompleted))
    }

    /// Service requests admitted but not yet resolved ≈ requests
    /// currently in flight inside the event-loop runtime.
    #[must_use]
    pub fn service_in_flight(&self) -> u64 {
        let resolved = self.counter(Counter::ServiceOk)
            + self.counter(Counter::ServiceFailed)
            + self.counter(Counter::ServiceDeadlineExceeded);
        self.counter(Counter::ServiceAdmitted)
            .saturating_sub(resolved)
    }

    /// Service requests currently parked in the backpressure queue
    /// (enqueued − dequeued).
    #[must_use]
    pub fn service_queue_depth(&self) -> u64 {
        self.counter(Counter::ServiceEnqueued)
            .saturating_sub(self.counter(Counter::ServiceDequeued))
    }

    /// Service requests that reached a terminal disposition, whatever it
    /// was (ok, failed, deadline-exceeded, or shed at admission).
    #[must_use]
    pub fn service_resolved(&self) -> u64 {
        self.counter(Counter::ServiceOk)
            + self.counter(Counter::ServiceFailed)
            + self.counter(Counter::ServiceDeadlineExceeded)
            + self.counter(Counter::ServiceRejected)
    }

    /// Fraction of pattern alternatives whose full execution early exit
    /// avoided (0 when no pattern runs were recorded).
    #[must_use]
    pub fn variant_work_saved(&self) -> f64 {
        let avoided =
            self.counter(Counter::VariantsSkipped) + self.counter(Counter::VariantsCancelled);
        let total = avoided + self.counter(Counter::VariantsExecuted);
        if total == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                avoided as f64 / total as f64
            }
        }
    }
}

thread_local! {
    /// This thread's cached shard of the *global* registry.
    static GLOBAL_SHARD: Cell<Option<&'static TelemetryShard>> = const { Cell::new(None) };
}

#[inline]
fn global_shard() -> &'static TelemetryShard {
    GLOBAL_SHARD.with(|slot| {
        if let Some(shard) = slot.get() {
            return shard;
        }
        let arc = Telemetry::global().register_shard();
        // SAFETY: the global registry keeps its own strong reference to
        // every shard forever (shards are never removed), and this
        // deliberately leaked count pins a second one, so the pointee
        // lives for the rest of the process.
        let shard: &'static TelemetryShard = unsafe { &*Arc::into_raw(arc) };
        slot.set(Some(shard));
        shard
    })
}

/// Whether the global recorder is on (one relaxed load of a plain
/// static — no `OnceLock` dereference on the hook path).
#[must_use]
#[inline]
pub fn enabled() -> bool {
    GLOBAL_ENABLED.load(Ordering::Relaxed)
}

/// This thread's shard of the global registry when recording is on,
/// `None` (one load, one branch) while it's off. For call sites that
/// bump several counters at once: pay the enabled check and the
/// thread-local lookup once, then `shard.add(..)` directly.
#[must_use]
#[inline]
pub fn active_shard() -> Option<&'static TelemetryShard> {
    enabled().then(global_shard)
}

/// Adds `delta` to `counter` on this thread's shard of the global
/// registry; a no-op (one load, one branch) while recording is off.
#[inline]
pub fn add(counter: Counter, delta: u64) {
    if enabled() {
        global_shard().add(counter, delta);
    }
}

/// Records a nanosecond sample into `timer` on this thread's shard of
/// the global registry; a no-op while recording is off.
#[inline]
pub fn observe_ns(timer: Timer, ns: u64) {
    if enabled() {
        global_shard().observe_ns(timer, ns);
    }
}

/// Starts a wall-clock measurement: `Some(now)` when recording is on,
/// `None` (without touching the clock) when it is off. Pair with
/// [`timer_stop`].
#[must_use]
#[inline]
pub fn timer_start() -> Option<Instant> {
    enabled().then(Instant::now)
}

/// Finishes a measurement started by [`timer_start`], recording the
/// elapsed nanoseconds into `timer` and returning them (so call sites
/// can also fold the same span into a counter, e.g. busy time).
#[inline]
pub fn timer_stop(timer: Timer, started: Option<Instant>) -> Option<u64> {
    let started = started?;
    let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    observe_ns(timer, ns);
    Some(ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_aggregate_across_threads_without_locks_on_record() {
        let telemetry = Telemetry::new();
        let shards: Vec<_> = (0..4).map(|_| telemetry.register_shard()).collect();
        std::thread::scope(|scope| {
            for (t, shard) in shards.iter().enumerate() {
                scope.spawn(move || {
                    for i in 0..100u64 {
                        shard.add(Counter::TrialsCorrect, 1);
                        shard.observe_ns(Timer::TrialNs, (t as u64 + 1) * 1_000 + i);
                    }
                });
            }
        });
        let snapshot = telemetry.snapshot();
        assert_eq!(snapshot.counter(Counter::TrialsCorrect), 400);
        assert_eq!(snapshot.counter(Counter::TrialsDetected), 0);
        let hist = snapshot.timer(Timer::TrialNs);
        assert_eq!(hist.count(), 400);
        assert_eq!(hist.min(), Some(1_000));
        assert_eq!(hist.max(), Some(4_099));
    }

    #[test]
    fn snapshot_of_an_empty_registry_is_zero() {
        let telemetry = Telemetry::new();
        let snapshot = telemetry.snapshot();
        for (_, value) in snapshot.counters() {
            assert_eq!(value, 0);
        }
        for (_, hist) in snapshot.timers() {
            assert_eq!(hist.count(), 0);
            assert_eq!(hist.min(), None);
            assert_eq!(hist.quantile(0.5), None);
        }
        assert_eq!(snapshot.trials_completed(), 0);
        assert_eq!(snapshot.workers_busy(), 0);
        assert_eq!(snapshot.variant_work_saved(), 0.0);
    }

    #[test]
    fn reset_zeroes_in_place_and_shards_stay_usable() {
        let telemetry = Telemetry::new();
        let shard = telemetry.register_shard();
        shard.add(Counter::ChaosKills, 3);
        shard.observe_ns(Timer::MergerStallNs, 5_000_000);
        assert_eq!(telemetry.snapshot().counter(Counter::ChaosKills), 3);
        telemetry.reset();
        let snapshot = telemetry.snapshot();
        assert_eq!(snapshot.counter(Counter::ChaosKills), 0);
        assert_eq!(snapshot.timer(Timer::MergerStallNs).count(), 0);
        shard.add(Counter::ChaosKills, 1);
        assert_eq!(telemetry.snapshot().counter(Counter::ChaosKills), 1);
    }

    #[test]
    fn derived_gauges_follow_their_counters() {
        let telemetry = Telemetry::new();
        let shard = telemetry.register_shard();
        shard.add(Counter::TrialsCorrect, 7);
        shard.add(Counter::TrialsUndetected, 2);
        shard.add(Counter::TrialsDetected, 1);
        shard.add(Counter::ChunksClaimed, 5);
        shard.add(Counter::ChunksCompleted, 3);
        shard.add(Counter::VariantsExecuted, 60);
        shard.add(Counter::VariantsSkipped, 30);
        shard.add(Counter::VariantsCancelled, 10);
        let snapshot = telemetry.snapshot();
        assert_eq!(snapshot.trials_completed(), 10);
        assert_eq!(snapshot.workers_busy(), 2);
        assert!((snapshot.variant_work_saved() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn timer_helpers_do_not_touch_the_clock_when_disabled() {
        // The global registry defaults to disabled; these must all be
        // no-ops regardless of what other tests have recorded.
        assert_eq!(timer_stop(Timer::TrialNs, None), None);
        // `timer_start` with the recorder off hands back no Instant.
        if !enabled() {
            assert!(timer_start().is_none());
        }
    }

    #[test]
    fn service_gauges_follow_their_counters() {
        let telemetry = Telemetry::new();
        let shard = telemetry.register_shard();
        shard.add(Counter::ServiceArrivals, 20);
        shard.add(Counter::ServiceAdmitted, 15);
        shard.add(Counter::ServiceOk, 9);
        shard.add(Counter::ServiceFailed, 2);
        shard.add(Counter::ServiceDeadlineExceeded, 1);
        shard.add(Counter::ServiceRejected, 3);
        shard.add(Counter::ServiceEnqueued, 8);
        shard.add(Counter::ServiceDequeued, 6);
        let snapshot = telemetry.snapshot();
        assert_eq!(snapshot.service_in_flight(), 3);
        assert_eq!(snapshot.service_queue_depth(), 2);
        assert_eq!(snapshot.service_resolved(), 15);
    }

    #[test]
    fn queue_depth_samples_land_on_the_depth_ladder() {
        let telemetry = Telemetry::new();
        let shard = telemetry.register_shard();
        // Depth samples are small integers; on NS_BUCKETS all of them
        // would collapse into the first (≤ 1 µs) rung. The depth ladder
        // must separate them.
        for depth in [1u64, 3, 7, 100, 5_000] {
            shard.observe_ns(Timer::ServiceQueueDepth, depth);
        }
        let snapshot = telemetry.snapshot();
        let hist = snapshot.timer(Timer::ServiceQueueDepth);
        assert_eq!(hist.bounds(), DEPTH_BUCKETS);
        assert_eq!(hist.count(), 5);
        assert_eq!(hist.overflow(), 1); // 5_000 > 1_024
        assert_eq!(hist.min(), Some(1));
        assert_eq!(hist.max(), Some(5_000));
        // Latency timers keep the nanosecond ladder.
        shard.observe_ns(Timer::ServiceLatencyNs, 2_000);
        let snapshot = telemetry.snapshot();
        assert_eq!(snapshot.timer(Timer::ServiceLatencyNs).bounds(), NS_BUCKETS);
    }

    #[test]
    fn overflow_samples_keep_observed_max() {
        let telemetry = Telemetry::new();
        let shard = telemetry.register_shard();
        shard.observe_ns(Timer::CheckpointCommitNs, 5_000_000_000);
        let snapshot = telemetry.snapshot();
        let hist = snapshot.timer(Timer::CheckpointCommitNs);
        assert_eq!(hist.count(), 1);
        assert_eq!(hist.overflow(), 1);
        assert_eq!(hist.quantile(0.99), Some(5_000_000_000));
    }
}
