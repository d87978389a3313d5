//! The five workloads: how each is built, what one call does, and the
//! fingerprint of a call's simulated output that the reference check
//! compares.
//!
//! Every call goes through a public entry point of an engine:
//! `Campaign::run_parallel`, `run_traced_parallel` and
//! `run_parallel_resumable` for the campaign engine, `ServiceRuntime::run`
//! and `ShardedRuntime::run_jobs` for the service runtime. An
//! *instrumented* bench (the traced run) hands the engines the same
//! patterns and providers inside the [`crate::wrap`] wrappers.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use redundancy_core::adjudicator::voting::MajorityVoter;
use redundancy_core::context::ExecContext;
use redundancy_core::obs::{Event, Observer, RingBufferObserver};
use redundancy_core::patterns::ParallelEvaluation;
use redundancy_core::rng::SplitMix64;
use redundancy_core::variant::BoxedVariant;
use redundancy_faults::FaultPlan;
use redundancy_services::breaker::BreakerConfig;
use redundancy_services::provider::SimProvider;
use redundancy_services::recovery::Backoff;
use redundancy_services::registry::InterfaceId;
use redundancy_services::runtime::{
    PlannedProvider, RequestPolicy, RuntimeConfig, RuntimeReport, ServiceRuntime, Workload,
};
use redundancy_services::shard::ShardedRuntime;
use redundancy_services::value::Value;
use redundancy_services::ArrivalProcess;
use redundancy_sim::checkpoint::CheckpointSpec;
use redundancy_sim::trial::{Campaign, TrialOutcome, TrialSummary};

use crate::probe::{self, Layer, SAMPLE};
use crate::wrap::{TimedAdjudicator, TimedProvider, TimedSink, TimedVariant};

/// Calls cycle through this many seeds derived from the run's seed.
pub const SEED_SET: usize = 8;

/// Trials per campaign call (all three campaign workloads).
const TRIALS_PER_CALL: usize = 10_000;

/// Requests per `svc-hedged` replay.
const HEDGED_REQUESTS: u64 = 10_000;

/// Requests per `svc-failover` replay.
const FAILOVER_REQUESTS: u64 = 20_000;

/// Event capacity of the `campaign-traced` ring sink: far below one
/// call's event stream, so the bounded-sink path is the one measured.
const RING_CAPACITY: usize = 4_096;

/// Trials per checkpoint commit on `campaign-resumable` (one of E19's
/// swept intervals).
const CHECKPOINT_INTERVAL: usize = 32;

/// Shards of every `svc-failover` replay. Fixed rather than `nproc`:
/// with breakers on the ledger depends on the shard count, so a fixed
/// count keeps the pinned references valid on any host. Two is the
/// sizing host's `nproc`.
const FAILOVER_SHARDS: usize = 2;

/// Shard count the `svc-hedged` self-consistency reference replays
/// with: with breakers off and caps that never bind, the ledger is the
/// same at any shard count, so a sharded serial replay is an
/// independent check of the single event loop.
const HEDGED_REFERENCE_SHARDS: usize = 2;

const WORK: u64 = 25;
const DENSITY: f64 = 0.25;
const BASE_NS: u64 = 200_000;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 3-version NVP campaign through `Campaign::run_parallel`.
    Campaign,
    /// The same trials through `Campaign::run_traced_parallel` into a ring.
    CampaignTraced,
    /// The same trials through `Campaign::run_parallel_resumable`.
    CampaignResumable,
    /// Hedged requests on one event loop (`ServiceRuntime::run`).
    SvcHedged,
    /// Failover with breakers and admission on `ShardedRuntime::run_jobs`.
    SvcFailover,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 5] = [
        Kind::Campaign,
        Kind::CampaignTraced,
        Kind::CampaignResumable,
        Kind::SvcHedged,
        Kind::SvcFailover,
    ];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::Campaign => "campaign",
            Kind::CampaignTraced => "campaign-traced",
            Kind::CampaignResumable => "campaign-resumable",
            Kind::SvcHedged => "svc-hedged",
            Kind::SvcFailover => "svc-failover",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|kind| kind.name() == name)
    }

    /// The workload the traced run measures beside this one: the plain
    /// `campaign` that the obs and checkpoint layers are the difference
    /// from, and for `svc-failover` the hedged replay, whose hedging layer
    /// the failover policy never exercises.
    #[must_use]
    pub fn baseline(self) -> Option<Kind> {
        match self {
            Kind::CampaignTraced | Kind::CampaignResumable => Some(Kind::Campaign),
            Kind::SvcFailover => Some(Kind::SvcHedged),
            Kind::Campaign | Kind::SvcHedged => None,
        }
    }

    /// Whether the workload runs the campaign engine.
    #[must_use]
    pub fn is_campaign(self) -> bool {
        matches!(
            self,
            Kind::Campaign | Kind::CampaignTraced | Kind::CampaignResumable
        )
    }

    /// Items (trials or simulated requests) one call completes.
    #[must_use]
    pub fn items_per_call(self) -> usize {
        match self {
            Kind::Campaign | Kind::CampaignTraced | Kind::CampaignResumable => TRIALS_PER_CALL,
            Kind::SvcHedged => HEDGED_REQUESTS as usize,
            Kind::SvcFailover => FAILOVER_REQUESTS as usize,
        }
    }

    /// Threads one call keeps busy at `jobs` workers: the single event
    /// loop runs on the calling thread alone, and a sharded replay uses
    /// at most one thread per shard.
    #[must_use]
    pub fn threads(self, jobs: usize) -> usize {
        match self {
            Kind::SvcHedged => 1,
            Kind::SvcFailover => jobs.min(FAILOVER_SHARDS),
            _ => jobs,
        }
    }

    /// Shards of the service replay: [`FAILOVER_SHARDS`] for
    /// `svc-failover`, 1 for the single loop, 0 for campaigns.
    #[must_use]
    pub fn shards(self) -> usize {
        match self {
            Kind::SvcHedged => 1,
            Kind::SvcFailover => FAILOVER_SHARDS,
            _ => 0,
        }
    }
}

/// The seeds calls cycle through, derived from the run's seed.
#[must_use]
pub fn seed_set(base: u64) -> [u64; SEED_SET] {
    let mut rng = SplitMix64::new(base ^ 0x7065_7266_6265_6e63);
    std::array::from_fn(|_| rng.next_u64())
}

/// The simulated output of one call.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    /// A campaign's summary, plus the events the sink received when the
    /// campaign was traced.
    Campaign {
        /// The campaign summary.
        summary: TrialSummary,
        /// Events recorded into the sink (traced campaigns only).
        events: Option<u64>,
    },
    /// A replay and the figures E20 and E21 print for it.
    Service(ServiceOutput),
}

/// A replay's report plus the summaries computed inside the call.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceOutput {
    /// The full report (ledger and tallies).
    pub report: RuntimeReport,
    /// Virtual p50/p99/p999 of successful requests, ns.
    pub quantiles: [Option<u64>; 3],
    /// Goodput, requests per virtual second.
    pub goodput_per_sec: f64,
}

/// A fingerprint: the `key=value` fields a reference check compares.
pub type Fingerprint = Vec<(String, String)>;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn field(key: &str, value: impl ToString) -> (String, String) {
    (key.to_owned(), value.to_string())
}

impl Output {
    /// The fields a reference check compares. Floats print in Rust's
    /// shortest round-trip form, so equal fields mean equal bits.
    #[must_use]
    pub fn fingerprint(&self) -> Fingerprint {
        match self {
            Output::Campaign { summary, events } => {
                let mut fields = vec![
                    field("correct", summary.reliability.successes),
                    field("undetected", summary.undetected.successes),
                    field("detected", summary.detected.successes),
                    field("work", format!("{:?}", summary.work.mean)),
                    field("latency", format!("{:?}", summary.latency.mean)),
                    field("invocations", format!("{:?}", summary.invocations.mean)),
                    field("design", format!("{:?}", summary.design_cost)),
                    field(
                        "summary",
                        format!("{:016x}", fnv1a(format!("{summary:?}").as_bytes())),
                    ),
                ];
                if let Some(events) = events {
                    fields.push(field("events", events));
                }
                fields
            }
            Output::Service(out) => {
                let report = &out.report;
                let requests = report.ledger.len() as f64;
                let attempts: u64 = report.ledger.iter().map(|r| u64::from(r.attempts)).sum();
                let quantile = |q: Option<u64>| q.map_or("none".to_owned(), |ns| ns.to_string());
                vec![
                    field("digest", format!("{:016x}", report.ledger_digest())),
                    field("ok", report.ok),
                    field("failed", report.failed),
                    field("rejected", report.rejected),
                    field("deadline", report.deadline_exceeded),
                    field("p50_ns", quantile(out.quantiles[0])),
                    field("p99_ns", quantile(out.quantiles[1])),
                    field("p999_ns", quantile(out.quantiles[2])),
                    field(
                        "goodput_ratio",
                        format!("{:?}", report.ok as f64 / requests),
                    ),
                    field(
                        "attempts_per_request",
                        format!("{:?}", attempts as f64 / requests),
                    ),
                ]
            }
        }
    }

    /// Whether the output accounts for every item it was given: a
    /// campaign summarizes every trial, a replay resolves every request
    /// as ok, failed, rejected or deadline-exceeded.
    #[must_use]
    pub fn accounts_for(&self, items: usize) -> bool {
        match self {
            Output::Campaign { summary, .. } => summary.reliability.trials == items,
            Output::Service(out) => {
                let r = &out.report;
                r.ledger.len() == items
                    && r.ok + r.failed + r.rejected + r.deadline_exceeded == items as u64
            }
        }
    }
}

/// The three simulated statistics each run prints beside their pinned
/// values: for campaigns reliability, invocations per trial and mean
/// virtual latency (ns); for replays virtual p99 (µs), goodput ratio
/// and attempts per request.
#[must_use]
pub fn simulated_stats(kind: Kind, fingerprint: &Fingerprint) -> [(&'static str, f64); 3] {
    let get = |key: &str| -> f64 {
        fingerprint
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or(f64::NAN)
    };
    if kind.is_campaign() {
        let trials = get("correct") + get("undetected") + get("detected");
        [
            ("reliability", get("correct") / trials),
            ("invocations/trial", get("invocations")),
            ("virtual latency ns", get("latency")),
        ]
    } else {
        [
            ("virtual p99 us", get("p99_ns") / 1_000.0),
            ("goodput ratio", get("goodput_ratio")),
            ("attempts/request", get("attempts_per_request")),
        ]
    }
}

/// Host time of one call and of its parts.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timing {
    /// The whole call.
    pub total: Duration,
    /// The in-call report summaries (service workloads).
    pub report: Duration,
}

/// A point inside a call: when it was reached and the allocator's
/// counts there.
#[derive(Debug, Clone, Copy)]
struct Mark(Instant, (u64, u64));

impl Mark {
    fn now() -> Self {
        Mark(Instant::now(), probe::allocations())
    }
}

/// `Timing` and `[engine allocations, report allocations, bytes]` of a
/// call whose engine entry point ran from `start` to `ran` and whose
/// report summaries ran from `ran` to `done`.
fn measured(start: Mark, ran: Mark, done: Mark) -> (Timing, [u64; 3]) {
    (
        Timing {
            total: done.0 - start.0,
            report: done.0 - ran.0,
        },
        [
            ran.1 .0 - start.1 .0,
            done.1 .0 - ran.1 .0,
            done.1 .1 - start.1 .1,
        ],
    )
}

/// The golden function every NVP version implements.
fn golden(x: &u64) -> u64 {
    x * 2
}

/// The 3-version NVP ensemble of `campaign_throughput`: each version
/// carries its own seeded Bohrbugs (`FaultPlan::bohrbugs`, density
/// 0.25), voted by `MajorityVoter`.
fn nvp_pattern(instrumented: bool) -> ParallelEvaluation<u64, u64> {
    let plan = FaultPlan::bohrbugs(7, 3, DENSITY);
    let mut pattern = if instrumented {
        ParallelEvaluation::new(TimedAdjudicator(MajorityVoter::new()))
    } else {
        ParallelEvaluation::new(MajorityVoter::new())
    };
    for slot in 0..plan.slots() {
        let shift = 1001 * (slot as u64 + 1);
        let variant: BoxedVariant<u64, u64> = Box::new(plan.build_variant_corrupting(
            slot,
            format!("v{slot}"),
            WORK,
            golden,
            move |c, _| c + shift,
        ));
        pattern.push_variant(if instrumented {
            Box::new(TimedVariant(variant))
        } else {
            variant
        });
    }
    pattern
}

/// The input of the trial whose derived seed is `seed`: the trial seed
/// itself, narrowed so the golden function cannot overflow. Bohrbugs
/// fire on inputs, so each call seed yields its own mix of outcomes.
fn trial_input(seed: u64) -> u64 {
    seed >> 8
}

/// One NVP trial against `ctx`: run the ensemble on the trial's input,
/// classify the verdict.
fn nvp_trial(
    pattern: &ParallelEvaluation<u64, u64>,
    ctx: &mut ExecContext,
    seed: u64,
) -> TrialOutcome {
    let input = trial_input(seed);
    let report = pattern.run(&input, ctx);
    classify(&report.verdict.output().copied(), input, ctx)
}

fn classify(output: &Option<u64>, input: u64, ctx: &ExecContext) -> TrialOutcome {
    let cost = ctx.cost();
    match output {
        Some(out) if *out == golden(&input) => TrialOutcome::Correct { cost },
        Some(_) => TrialOutcome::Undetected { cost },
        None => TrialOutcome::Detected { cost },
    }
}

/// [`nvp_trial`] recorded as an item: 1 trial in [`SAMPLE`] (rotating
/// with the call number) gets a root span with the pattern run nested
/// inside it.
fn probed_trial(
    pattern: &ParallelEvaluation<u64, u64>,
    ctx: &mut ExecContext,
    seed: u64,
    i: usize,
    call: usize,
) -> TrialOutcome {
    let sampled = (i as u64 + call as u64).is_multiple_of(SAMPLE);
    probe::item(Layer::Trial, i as u64, sampled, || {
        let input = trial_input(seed);
        let report = probe::nested(Layer::Patterns, || pattern.run(&input, ctx));
        classify(&report.verdict.output().copied(), input, ctx)
    })
}

/// The E20 "spiky" pool: three providers at 200 µs ± 20 µs, 2% of
/// invocations stalling an extra 20 ms.
fn spiky_pool() -> Vec<Arc<dyn PlannedProvider>> {
    (0..3)
        .map(|i| {
            let provider = SimProvider::builder(format!("spiky{i}"), InterfaceId::new("svc"))
                .latency(BASE_NS, BASE_NS / 10)
                .operation("work", |_, _| Ok(Value::Int(1)))
                .latency_spike(0.02, 20_000_000)
                .build();
            Arc::new(provider) as Arc<dyn PlannedProvider>
        })
        .collect()
}

/// The E21 pool: one sick provider (60% fail-stop, 10% 20 ms spikes)
/// between two healthy ones.
fn sick_pool() -> Vec<Arc<dyn PlannedProvider>> {
    (0..3)
        .map(|i| {
            let builder = SimProvider::builder(format!("p{i}"), InterfaceId::new("svc"))
                .latency(BASE_NS, BASE_NS / 10)
                .operation("work", |_, _| Ok(Value::Int(1)));
            let builder = if i == 1 {
                builder.fail_prob(0.60).latency_spike(0.10, 20_000_000)
            } else {
                builder
            };
            Arc::new(builder.build()) as Arc<dyn PlannedProvider>
        })
        .collect()
}

fn wrapped(pool: Vec<Arc<dyn PlannedProvider>>) -> Vec<Arc<dyn PlannedProvider>> {
    pool.into_iter()
        .map(|p| Arc::new(TimedProvider(p)) as Arc<dyn PlannedProvider>)
        .collect()
}

/// `svc-hedged`: hedge after 1 ms, up to 2 extra attempts, 100 ms
/// deadline, breakers off, caps far above the load so they never bind.
fn hedged_config() -> RuntimeConfig {
    RuntimeConfig {
        policy: RequestPolicy::Hedged {
            delay_ns: 1_000_000,
            max_hedges: 2,
        },
        deadline_ns: 100_000_000,
        max_in_flight: 4_096,
        queue_capacity: 4_096,
        breaker: None,
    }
}

/// E21's breaker profile.
fn breaker_config() -> BreakerConfig {
    BreakerConfig {
        window: 32,
        failure_pct: 50,
        min_samples: 16,
        cooldown_ns: 10_000_000,
        half_open_probes: 3,
        slow_call_ns: 10_000_000,
    }
}

/// `svc-failover`: 3 attempts with exponential backoff (E20's failover
/// schedule), E21's breakers, 100 ms deadline, and a system-wide cap of
/// 8 in flight and 32 queued, so bursts queue and a few percent shed.
fn failover_config() -> RuntimeConfig {
    RuntimeConfig {
        policy: RequestPolicy::Failover {
            max_attempts: 3,
            backoff: Backoff::Exponential {
                base_ns: 500_000,
                factor: 2,
                cap_ns: 4_000_000,
            },
        },
        deadline_ns: 100_000_000,
        max_in_flight: 8,
        queue_capacity: 32,
        breaker: Some(breaker_config()),
    }
}

/// Poisson arrivals at E20's 100 µs mean gap.
fn hedged_workload(requests: u64) -> Workload {
    Workload::poisson(requests, 100_000, "work")
}

/// E21's bursty arrivals: 20 ms bursts at a 50 µs mean gap, 80 ms lulls
/// at 2 ms.
fn failover_workload(requests: u64) -> Workload {
    Workload {
        requests,
        arrival: ArrivalProcess::OnOff {
            on_gap_ns: 50_000,
            off_gap_ns: 2_000_000,
            on_ns: 20_000_000,
            off_ns: 80_000_000,
        },
        operation: "work".into(),
        args: vec![],
    }
}

fn sharded(
    shards: usize,
    config: RuntimeConfig,
    pool: fn() -> Vec<Arc<dyn PlannedProvider>>,
    instrumented: bool,
) -> ShardedRuntime {
    if instrumented {
        ShardedRuntime::new(shards, config, move || wrapped(pool()))
    } else {
        ShardedRuntime::new(shards, config, pool)
    }
}

fn service_output(report: RuntimeReport) -> ServiceOutput {
    let quantiles = [
        report.latency_quantile(0.5),
        report.latency_quantile(0.99),
        report.latency_quantile(0.999),
    ];
    let goodput_per_sec = report.goodput_per_sec();
    ServiceOutput {
        report,
        quantiles,
        goodput_per_sec,
    }
}

/// Counts the events a serial traced campaign records.
#[derive(Default)]
struct EventCounter(AtomicU64);

impl Observer for EventCounter {
    fn record(&self, _event: Event) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

enum Engine {
    Campaign {
        pattern: ParallelEvaluation<u64, u64>,
        ring: Arc<RingBufferObserver>,
        sink: Arc<dyn Observer>,
        checkpoints: PathBuf,
    },
    Hedged(ServiceRuntime),
    Failover(ShardedRuntime),
}

/// A workload ready to be called.
pub struct Bench {
    kind: Kind,
    jobs: usize,
    items: usize,
    instrumented: bool,
    engine: Engine,
    campaign: Campaign,
    workload: Workload,
}

impl Bench {
    /// Builds `kind` for `jobs` workers with `items` trials or requests
    /// per call; `instrumented` wraps every pattern piece, sink and
    /// provider for the traced run. Checkpoint files go under `work_dir`.
    #[must_use]
    pub fn new(kind: Kind, jobs: usize, items: usize, instrumented: bool, work_dir: &Path) -> Self {
        let engine = match kind {
            Kind::Campaign | Kind::CampaignTraced | Kind::CampaignResumable => {
                if kind == Kind::CampaignResumable {
                    std::fs::create_dir_all(work_dir).unwrap_or_else(|err| {
                        panic!("cannot create {}: {err}", work_dir.display())
                    });
                }
                let ring = RingBufferObserver::shared(RING_CAPACITY);
                let sink: Arc<dyn Observer> = if instrumented {
                    Arc::new(TimedSink(ring.clone()))
                } else {
                    ring.clone()
                };
                Engine::Campaign {
                    pattern: nvp_pattern(instrumented),
                    ring,
                    sink,
                    checkpoints: work_dir.to_path_buf(),
                }
            }
            Kind::SvcHedged => {
                let pool = if instrumented {
                    wrapped(spiky_pool())
                } else {
                    spiky_pool()
                };
                Engine::Hedged(ServiceRuntime::new(pool, hedged_config()))
            }
            Kind::SvcFailover => Engine::Failover(sharded(
                kind.shards(),
                failover_config(),
                sick_pool,
                instrumented,
            )),
        };
        let workload = match kind {
            Kind::SvcFailover => failover_workload(items as u64),
            _ => hedged_workload(items as u64),
        };
        Bench {
            kind,
            jobs,
            items,
            instrumented,
            engine,
            campaign: Campaign::new(items),
            workload,
        }
    }

    /// The workload this bench runs.
    #[must_use]
    pub fn kind(&self) -> Kind {
        self.kind
    }

    /// Worker threads a call may use.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Re-targets calls to `jobs` workers. The shard count of a sharded
    /// replay stays what it was built with, so results do not change.
    pub fn set_jobs(&mut self, jobs: usize) {
        self.jobs = jobs;
    }

    /// Trials or requests per call.
    #[must_use]
    pub fn items(&self) -> usize {
        self.items
    }

    /// The replayed request stream (service workloads).
    #[must_use]
    pub fn service_workload(&self) -> &Workload {
        &self.workload
    }

    /// The checkpoint file call `call` writes (`campaign-resumable`).
    #[must_use]
    pub fn checkpoint_path(&self, call: usize) -> Option<PathBuf> {
        match &self.engine {
            Engine::Campaign { checkpoints, .. } if self.kind == Kind::CampaignResumable => {
                Some(checkpoints.join(format!(
                    "checkpoint-{}-{}.jsonl",
                    std::process::id(),
                    call % 2
                )))
            }
            _ => None,
        }
    }

    /// One call on `seed`; `call` numbers the call (it rotates which
    /// trials are sampled and names the checkpoint file). Returns the
    /// output, its host time, and — on an instrumented bench, else zeros
    /// — the allocations of the engine entry point and of the report
    /// summaries and the bytes they asked for.
    ///
    /// # Panics
    ///
    /// Panics when the engine panics or a resumable campaign cannot use
    /// its checkpoint file; the caller counts that call as failed.
    #[must_use]
    pub fn call(&self, seed: u64, call: usize) -> (Output, Timing, [u64; 3]) {
        probe::set_alloc_counting(self.instrumented);
        let result = self.call_engine(seed, call);
        probe::set_alloc_counting(false);
        let (output, (timing, allocs)) = result;
        (output, timing, allocs)
    }

    fn call_engine(&self, seed: u64, call: usize) -> (Output, (Timing, [u64; 3])) {
        match &self.engine {
            Engine::Campaign {
                pattern,
                ring,
                sink,
                ..
            } => {
                if self.instrumented {
                    self.campaign_call::<true>(pattern, ring, sink, seed, call)
                } else {
                    self.campaign_call::<false>(pattern, ring, sink, seed, call)
                }
            }
            Engine::Hedged(runtime) => {
                let start = Mark::now();
                let report = runtime.run(&self.workload, seed);
                let ran = Mark::now();
                let output = service_output(report);
                (Output::Service(output), measured(start, ran, Mark::now()))
            }
            Engine::Failover(runtime) => {
                let start = Mark::now();
                let report = runtime.run_jobs(&self.workload, seed, self.jobs);
                let ran = Mark::now();
                let output = service_output(report);
                (Output::Service(output), measured(start, ran, Mark::now()))
            }
        }
    }

    fn campaign_call<const PROBED: bool>(
        &self,
        pattern: &ParallelEvaluation<u64, u64>,
        ring: &RingBufferObserver,
        sink: &Arc<dyn Observer>,
        seed: u64,
        call: usize,
    ) -> (Output, (Timing, [u64; 3])) {
        let trial = |ctx: &mut ExecContext, s: u64, i: usize| {
            if PROBED {
                probed_trial(pattern, ctx, s, i, call)
            } else {
                nvp_trial(pattern, ctx, s)
            }
        };
        let (summary, events, start, done) = match self.kind {
            Kind::Campaign => {
                let start = Mark::now();
                let summary = self.campaign.run_parallel(seed, self.jobs, |s, i| {
                    trial(&mut ExecContext::new(s), s, i)
                });
                (summary, None, start, Mark::now())
            }
            Kind::CampaignTraced => {
                ring.clear();
                let start = Mark::now();
                let summary = self.campaign.run_traced_parallel(
                    seed,
                    self.jobs,
                    Arc::clone(sink),
                    |ctx, s, i| trial(ctx, s, i),
                );
                let done = Mark::now();
                let events = ring.len() as u64 + ring.dropped();
                (summary, Some(events), start, done)
            }
            _ => {
                let path = self
                    .checkpoint_path(call)
                    .expect("resumable campaigns have a checkpoint path");
                remove_if_present(&path);
                let spec = CheckpointSpec::new(&path, CHECKPOINT_INTERVAL);
                let start = Mark::now();
                let summary = self
                    .campaign
                    .run_parallel_resumable(seed, self.jobs, &spec, |s, i| {
                        trial(&mut ExecContext::new(s), s, i)
                    })
                    .unwrap_or_else(|err| panic!("resumable campaign failed: {err}"));
                (summary, None, start, Mark::now())
            }
        };
        (
            Output::Campaign { summary, events },
            measured(start, done, done),
        )
    }

    /// Reopens the checkpoint of call `call` on `seed` and returns the
    /// trials it still had to run and the resumed summary
    /// (`campaign-resumable` only).
    ///
    /// # Errors
    ///
    /// Returns the checkpoint error when the file cannot be reopened.
    pub fn reopen_checkpoint(
        &self,
        seed: u64,
        call: usize,
    ) -> Result<(usize, TrialSummary), String> {
        let (Engine::Campaign { pattern, .. }, Some(path)) =
            (&self.engine, self.checkpoint_path(call))
        else {
            return Err("not a resumable workload".to_owned());
        };
        let reran = AtomicU64::new(0);
        let spec = CheckpointSpec::new(&path, CHECKPOINT_INTERVAL);
        let summary = self
            .campaign
            .run_parallel_resumable(seed, self.jobs, &spec, |s, _i| {
                reran.fetch_add(1, Ordering::Relaxed);
                nvp_trial(pattern, &mut ExecContext::new(s), s)
            })
            .map_err(|err| err.to_string())?;
        Ok((reran.load(Ordering::Relaxed) as usize, summary))
    }

    /// Removes the checkpoint files this bench wrote.
    pub fn remove_checkpoints(&self) {
        for call in 0..2 {
            if let Some(path) = self.checkpoint_path(call) {
                remove_if_present(&path);
            }
        }
    }
}

fn remove_if_present(path: &Path) {
    if let Err(err) = std::fs::remove_file(path) {
        assert!(
            err.kind() == std::io::ErrorKind::NotFound,
            "cannot remove checkpoint {}: {err}",
            path.display()
        );
    }
}

/// The reference output for `seed` at `items` per call, computed on a
/// path other than the timed one: serial campaigns (`Campaign::run`,
/// and `run_traced` into an event counter), a sharded serial replay for
/// `svc-hedged`, and for `svc-failover` a replay at the same shard count
/// with one worker thread per shard (timed calls run the shards inline
/// on one thread; breakers make the ledger depend on the shard count,
/// but not on the job count).
#[must_use]
pub fn reference(kind: Kind, seed: u64, items: usize) -> Output {
    let campaign = Campaign::new(items);
    match kind {
        Kind::Campaign | Kind::CampaignResumable => {
            let pattern = nvp_pattern(false);
            let summary = campaign.run(seed, |s, _i| {
                nvp_trial(&pattern, &mut ExecContext::new(s), s)
            });
            Output::Campaign {
                summary,
                events: None,
            }
        }
        Kind::CampaignTraced => {
            let pattern = nvp_pattern(false);
            let counter = Arc::new(EventCounter::default());
            let summary = campaign.run_traced(seed, counter.clone(), |ctx, s, _i| {
                nvp_trial(&pattern, ctx, s)
            });
            Output::Campaign {
                summary,
                events: Some(counter.0.load(Ordering::Relaxed)),
            }
        }
        Kind::SvcHedged => Output::Service(service_output(
            sharded(HEDGED_REFERENCE_SHARDS, hedged_config(), spiky_pool, false)
                .run(&hedged_workload(items as u64), seed),
        )),
        Kind::SvcFailover => Output::Service(service_output(
            sharded(FAILOVER_SHARDS, failover_config(), sick_pool, false).run_jobs(
                &failover_workload(items as u64),
                seed,
                FAILOVER_SHARDS,
            ),
        )),
    }
}
