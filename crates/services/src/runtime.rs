//! The deterministic event-loop service runtime.
//!
//! [`Engine::run`](crate::process::Engine) executes one synchronous
//! request at a time; this module is its scaled counterpart: a
//! discrete-event loop (no wall clock, no threads, no tokio — one
//! seeded RNG stream and an [`EventQueue`]) that keeps thousands to
//! millions of requests in flight at once and resolves each under a
//! *request-level redundancy policy*. The paper's Figure-1 patterns map
//! directly:
//!
//! - **parallel selection** → [`RequestPolicy::Hedged`]: duplicate the
//!   request to another provider after a hedge delay (or immediately on
//!   failure), first acceptable response wins, outstanding attempts are
//!   cancelled;
//! - **sequential alternatives** → [`RequestPolicy::Failover`]: try
//!   providers one after another on a [`Backoff`] schedule, inside a
//!   per-request deadline budget;
//! - plus the operational guards redundancy needs under load:
//!   **admission control** (a bounded number of requests executes
//!   concurrently), a **bounded backpressure queue** in front of it,
//!   and **load shedding** once that queue is full.
//!
//! Every seam reports into `obs::telemetry` (arrivals, admissions,
//! hedges fired/won/cancelled, failovers, queue depth and latency
//! histograms), so the PR-6 flight recorder and Prometheus export cover
//! this runtime exactly as they cover the Monte-Carlo engine. The
//! per-request [`RequestRecord`] ledger is bit-identical for a given
//! seed — the determinism tests hash it.
//!
//! Two structural choices make the loop *shardable*
//! ([`ShardedRuntime`](crate::shard::ShardedRuntime) splits one
//! workload across per-shard loops on the campaign worker pool):
//!
//! - every per-request random quantity — arrival gap
//!   ([`ArrivalProcess::arrival_times`] precomputes the schedule from
//!   per-id streams), initial provider offset, and attempt draws — is a
//!   pure function of `(seed, id)`, never of how many other requests
//!   ran first;
//! - the ledger is kept in canonical *resolution order*: sorted by
//!   `(end_ns, id)`, a total order independent of event interleaving,
//!   so merged shard ledgers hash identically to the single loop's.
//!
//! Optionally each provider sits behind a per-run
//! [`CircuitBreaker`](crate::breaker::CircuitBreaker)
//! ([`RuntimeConfig::breaker`]): Open providers are skipped by hedges
//! and failover rotations, and a request arriving while *every*
//! provider is Open is shed at the front door.
//!
//! Live requests (admitted or queued) sit in a slab: a `Vec` of slots
//! plus a free list, so finding a request's state is an index, not a
//! hash, and the slab grows with the most requests ever live at once,
//! not with the run. Every event and queue entry carries its request's
//! `(id, slot)` and matches only while the slot still holds that id.
//! That is how cancellation stays lazy: a timer or completion for a
//! request that already resolved pops, finds its slot free or reused,
//! and is dropped.

use std::collections::VecDeque;
use std::sync::Arc;

use redundancy_core::obs::telemetry::{self, Counter, Timer};
use redundancy_core::rng::SplitMix64;

use crate::arrival::ArrivalProcess;
use crate::breaker::{BreakerConfig, CircuitBreaker, ProbeToken};
use crate::clock::EventQueue;
use crate::provider::{PlannedInvoke, Provider, SimProvider};
use crate::recovery::Backoff;
use crate::value::Value;

/// A provider the event loop can drive: decides an invocation's latency
/// and response up front ([`PlannedInvoke`]) so the loop can schedule
/// the completion in virtual time instead of blocking on it.
pub trait PlannedProvider: Send + Sync {
    /// Unique provider id.
    fn id(&self) -> &str;

    /// Decides one invocation without any time passing.
    fn plan(&self, operation: &str, args: &[Value], rng: &mut SplitMix64) -> PlannedInvoke;
}

impl PlannedProvider for SimProvider {
    fn id(&self) -> &str {
        Provider::id(self)
    }

    fn plan(&self, operation: &str, args: &[Value], rng: &mut SplitMix64) -> PlannedInvoke {
        self.plan_invoke(operation, args, rng)
    }
}

/// How the runtime spends redundancy on each request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestPolicy {
    /// One attempt on one provider; its failure is the request's.
    Single,
    /// Figure-1 parallel selection at request granularity: after
    /// `delay_ns` without a response (or immediately when an attempt
    /// fails), duplicate the request to the next provider, up to
    /// `max_hedges` extras. First acceptable response wins; attempts
    /// still in flight are cancelled.
    Hedged {
        /// Virtual ns to wait before each speculative duplicate.
        delay_ns: u64,
        /// Maximum hedge attempts on top of the primary.
        max_hedges: u32,
    },
    /// Figure-1 sequential alternatives: on failure, try the next
    /// provider after a backoff pause, up to `max_attempts` total,
    /// all inside the request's deadline budget.
    Failover {
        /// Total attempts allowed (primary included, ≥ 1).
        max_attempts: u32,
        /// Virtual-time pause schedule between attempts.
        backoff: Backoff,
    },
}

/// Event-loop limits and policy for one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// The redundancy policy applied to every request.
    pub policy: RequestPolicy,
    /// Per-request budget in virtual ns, counted from *arrival* (so it
    /// covers queueing). `0` disables deadlines.
    pub deadline_ns: u64,
    /// Admission control: requests executing concurrently (≥ 1).
    pub max_in_flight: usize,
    /// Bounded backpressure queue in front of admission; arrivals
    /// beyond `max_in_flight + queue_capacity` are shed.
    pub queue_capacity: usize,
    /// Per-provider circuit breakers (`None` disables them): each run
    /// instantiates one fresh [`CircuitBreaker`] per provider from this
    /// config, so breaker state never leaks across runs or shards.
    pub breaker: Option<BreakerConfig>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            policy: RequestPolicy::Single,
            deadline_ns: 0,
            max_in_flight: 1_024,
            queue_capacity: 4_096,
            breaker: None,
        }
    }
}

/// An open-loop request stream: `requests` arrivals scheduled by an
/// [`ArrivalProcess`], every request invoking the same operation with
/// the same arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Total requests to generate.
    pub requests: u64,
    /// When requests enter the system (Poisson, bursty on/off, or a
    /// replayed trace); the full schedule is precomputed per run.
    pub arrival: ArrivalProcess,
    /// Operation invoked by every request.
    pub operation: String,
    /// Arguments passed to every request.
    pub args: Vec<Value>,
}

impl Workload {
    /// Convenience: a Poisson (exponential-gap) workload — the common
    /// steady-state shape.
    #[must_use]
    pub fn poisson(requests: u64, mean_gap_ns: u64, operation: impl Into<String>) -> Self {
        Workload {
            requests,
            arrival: ArrivalProcess::Poisson { mean_gap_ns },
            operation: operation.into(),
            args: vec![],
        }
    }
}

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestOutcome {
    /// An attempt returned an acceptable response.
    Ok {
        /// Which attempt won (0 = primary, ≥ 1 = hedge/failover).
        attempt: u32,
        /// Index of the winning provider in the runtime's provider list.
        provider: u32,
    },
    /// Every allowed attempt failed.
    Failed,
    /// The deadline budget expired first.
    DeadlineExceeded,
    /// Shed at admission: the backpressure queue was full.
    Rejected,
}

/// One line of the per-request ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RequestRecord {
    /// Request id (= arrival order).
    pub id: u64,
    /// Virtual arrival time.
    pub arrival_ns: u64,
    /// When execution started (`None`: never admitted).
    pub start_ns: Option<u64>,
    /// When the request resolved.
    pub end_ns: u64,
    /// Attempts dispatched.
    pub attempts: u32,
    /// Terminal disposition.
    pub outcome: RequestOutcome,
}

impl RequestRecord {
    /// End-to-end virtual latency (queueing included).
    #[must_use]
    pub fn latency_ns(&self) -> u64 {
        self.end_ns - self.arrival_ns
    }
}

/// Everything one run produced: the full ledger plus aggregate counts.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RuntimeReport {
    /// Per-request records in canonical resolution order — sorted by
    /// `(end_ns, id)`, a total order that is identical however the run
    /// was sharded or scheduled (deterministic per seed).
    pub ledger: Vec<RequestRecord>,
    /// Virtual time of the last event.
    pub makespan_ns: u64,
    /// Requests resolved acceptably.
    pub ok: u64,
    /// Requests that exhausted every attempt.
    pub failed: u64,
    /// Requests shed at admission.
    pub rejected: u64,
    /// Requests that outlived their deadline budget.
    pub deadline_exceeded: u64,
    /// Hedge attempts dispatched.
    pub hedges_fired: u64,
    /// Requests won by a hedge attempt.
    pub hedges_won: u64,
    /// In-flight attempts cancelled after a sibling resolved first.
    pub hedges_cancelled: u64,
    /// Failover attempts dispatched.
    pub failovers: u64,
    /// Most requests ever executing at once (summed across shards in a
    /// merged report — an aggregate capacity footprint, not a single
    /// loop's high-water mark).
    pub peak_in_flight: usize,
    /// Deepest the backpressure queue ever got (summed when merged).
    pub peak_queue_depth: usize,
    /// Attempts that completed with a failure verdict.
    pub attempts_failed: u64,
    /// Times a provider's circuit breaker tripped Open (re-opens from
    /// failed half-open probes included).
    pub breaker_opens: u64,
    /// Open providers skipped over when picking an attempt's target.
    pub breaker_skips: u64,
    /// Requests shed at arrival because every provider was Open.
    pub breaker_shed: u64,
}

impl RuntimeReport {
    /// *Offered* throughput in requests per virtual second: every
    /// request that reached a disposition, including shed and
    /// timed-out ones. The denominator of loss ratios, not a measure
    /// of useful work — see [`goodput_per_sec`](Self::goodput_per_sec).
    #[must_use]
    pub fn offered_per_sec(&self) -> f64 {
        Self::per_sec(self.ledger.len() as u64, self.makespan_ns)
    }

    /// *Goodput* in requests per virtual second: only requests that
    /// resolved acceptably. Under load shedding this is the number that
    /// matters — counting `Rejected`/`DeadlineExceeded` rows (as the
    /// pre-fix `requests_per_sec` did) overstates throughput exactly
    /// when the runtime starts refusing work.
    #[must_use]
    pub fn goodput_per_sec(&self) -> f64 {
        Self::per_sec(self.ok, self.makespan_ns)
    }

    fn per_sec(count: u64, makespan_ns: u64) -> f64 {
        if makespan_ns == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            count as f64 / (makespan_ns as f64 / 1e9)
        }
    }

    /// Exact (nearest-rank over the full ledger, no sketch) latency
    /// quantile of the *successful* requests, in virtual ns.
    ///
    /// Nearest-rank convention: the result is the smallest recorded
    /// latency with at least `⌈q·n⌉` samples at or below it, with the
    /// rank clamped into `1..=n` — so `q = 0.0` returns the minimum
    /// (rank 1), `q = 1.0` the maximum (rank n), and any finite `q`
    /// outside `[0, 1]` clamps to those endpoints. Returns `None` for a
    /// non-finite `q` (NaN has no rank) or when no request succeeded.
    #[must_use]
    pub fn latency_quantile(&self, q: f64) -> Option<u64> {
        if !q.is_finite() {
            return None;
        }
        let mut latencies: Vec<u64> = self
            .ledger
            .iter()
            .filter(|r| matches!(r.outcome, RequestOutcome::Ok { .. }))
            .map(RequestRecord::latency_ns)
            .collect();
        if latencies.is_empty() {
            return None;
        }
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
        #[allow(clippy::cast_sign_loss)]
        let rank = ((q.clamp(0.0, 1.0) * latencies.len() as f64).ceil() as usize)
            .clamp(1, latencies.len());
        // The rank-th smallest by selection: O(n), no full sort.
        Some(*latencies.select_nth_unstable(rank - 1).1)
    }

    /// FNV-1a hash over every ledger field — the bit-identity fingerprint
    /// the determinism tests compare across runs.
    #[must_use]
    pub fn ledger_digest(&self) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325_u64;
        let mut eat = |value: u64| {
            for byte in value.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for record in &self.ledger {
            eat(record.id);
            eat(record.arrival_ns);
            eat(record.start_ns.map_or(u64::MAX, |s| s));
            eat(record.end_ns);
            eat(u64::from(record.attempts));
            let (kind, a, p) = match record.outcome {
                RequestOutcome::Ok { attempt, provider } => {
                    (0u64, u64::from(attempt), u64::from(provider))
                }
                RequestOutcome::Failed => (1, 0, 0),
                RequestOutcome::DeadlineExceeded => (2, 0, 0),
                RequestOutcome::Rejected => (3, 0, 0),
            };
            eat(kind);
            eat(a);
            eat(p);
        }
        eat(self.makespan_ns);
        hash
    }
}

/// The events the loop schedules. Each names its request by id *and*
/// by the slab slot holding the request's state. Stale events (for
/// already-resolved requests) are cancelled lazily: they pop, find
/// their slot freed or holding a later request, and are dropped —
/// cheaper and simpler than queue surgery.
#[derive(Debug)]
enum Event {
    /// Request `req` arrives at the front door.
    Arrival { req: u64 },
    /// An attempt's planned response lands.
    AttemptDone {
        req: u64,
        slot: u32,
        attempt: u32,
        provider: u32,
        ok: bool,
        latency_ns: u64,
        /// The HalfOpen probe the dispatch reserved, if any — must be
        /// released even when the event pops stale.
        probe: ProbeToken,
    },
    /// The hedge delay elapsed with no response yet.
    HedgeTimer { req: u64, slot: u32 },
    /// A failover backoff pause ended.
    RetryTimer { req: u64, slot: u32 },
    /// The request's deadline budget ran out.
    Deadline { req: u64, slot: u32 },
}

/// The id of a slab slot that holds no request. Request ids are below
/// [`Workload::requests`], so no event or queue entry ever matches it.
const FREE: u64 = u64::MAX;

/// Live per-request state: one slab slot, taken at arrival and freed at
/// resolution.
struct ReqState {
    /// The request this slot holds, or [`FREE`].
    id: u64,
    arrival_ns: u64,
    start_ns: Option<u64>,
    attempts_started: u32,
    outstanding: u32,
    next_provider: usize,
    rng: SplitMix64,
}

/// The event-loop runtime: a provider pool plus a policy/limits config.
pub struct ServiceRuntime {
    providers: Vec<Arc<dyn PlannedProvider>>,
    config: RuntimeConfig,
}

impl ServiceRuntime {
    /// Creates a runtime over `providers` (tried round-robin, offset by
    /// request id so load spreads even under `Single`).
    ///
    /// # Panics
    ///
    /// Panics when `providers` is empty or `max_in_flight` is zero.
    #[must_use]
    pub fn new(providers: Vec<Arc<dyn PlannedProvider>>, config: RuntimeConfig) -> Self {
        assert!(!providers.is_empty(), "runtime needs at least one provider");
        assert!(config.max_in_flight > 0, "max_in_flight must be ≥ 1");
        ServiceRuntime { providers, config }
    }

    /// The configured limits and policy.
    #[must_use]
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// Drives `workload` to completion and returns the full report.
    /// Deterministic: the same `(workload, seed, config)` produces a
    /// bit-identical ledger, independent of host, wall-clock, or how
    /// many other runtimes run concurrently.
    #[must_use]
    pub fn run(&self, workload: &Workload, seed: u64) -> RuntimeReport {
        let arrivals = workload.arrival.arrival_times(workload.requests, seed);
        self.run_slice(workload, seed, &arrivals, 0, 1)
    }

    /// Drives the strided slice `{first, first + step, ...}` of
    /// `workload`'s id space against the precomputed `arrivals` table
    /// (one entry per id, shared across slices). `run` is the
    /// degenerate slice `(0, 1)`; [`ShardedRuntime`] runs slice `s` of
    /// `N` per shard. Per-request dynamics depend on `(seed, id)` only,
    /// so a request behaves identically whichever slice executes it.
    ///
    /// [`ShardedRuntime`]: crate::shard::ShardedRuntime
    #[must_use]
    pub(crate) fn run_slice(
        &self,
        workload: &Workload,
        seed: u64,
        arrivals: &[u64],
        first: u64,
        step: u64,
    ) -> RuntimeReport {
        assert!(step >= 1, "slice stride must be ≥ 1");
        assert_eq!(
            arrivals.len() as u64,
            workload.requests,
            "arrival table must cover every request id"
        );
        let breakers: Vec<CircuitBreaker> = match self.config.breaker {
            Some(config) => self
                .providers
                .iter()
                .map(|_| CircuitBreaker::new(config))
                .collect(),
            None => Vec::new(),
        };
        // The slice owns ids `first, first + step, ...` below `requests`,
        // and each resolves to exactly one ledger record.
        let owned = workload.requests.saturating_sub(first).div_ceil(step);
        let mut sim = Sim {
            providers: &self.providers,
            config: &self.config,
            workload,
            seed,
            arrivals,
            step,
            events: EventQueue::new(),
            slots: Vec::new(),
            free: Vec::new(),
            waiting: VecDeque::new(),
            in_flight: 0,
            breakers,
            report: RuntimeReport {
                ledger: Vec::with_capacity(usize::try_from(owned).unwrap_or(0)),
                ..RuntimeReport::default()
            },
        };
        if first < workload.requests {
            sim.events.schedule(
                arrivals[usize::try_from(first).unwrap_or(usize::MAX)],
                Event::Arrival { req: first },
            );
        }
        while let Some((now, event)) = sim.events.pop() {
            sim.handle(now, event);
        }
        sim.report.makespan_ns = sim.events.now();
        debug_assert_eq!(
            sim.free.len(),
            sim.slots.len(),
            "every request must resolve"
        );
        for breaker in &sim.breakers {
            sim.report.breaker_opens += breaker.opens();
        }
        // Canonical resolution order: (end_ns, id) is a total order
        // independent of event interleaving, so single-loop and merged
        // sharded ledgers are byte-identical.
        sim.report.ledger.sort_unstable_by_key(|r| (r.end_ns, r.id));
        sim.report
    }
}

/// One run's whole mutable state; methods are the event handlers.
struct Sim<'a> {
    providers: &'a [Arc<dyn PlannedProvider>],
    config: &'a RuntimeConfig,
    workload: &'a Workload,
    seed: u64,
    /// Precomputed arrival instant per request id (all ids, not just
    /// this slice's — stride-indexed).
    arrivals: &'a [u64],
    /// Id stride of this slice: the next arrival after `req` is
    /// `req + step`.
    step: u64,
    events: EventQueue<Event>,
    /// The slab of live (admitted or queued) requests; see the module
    /// docs for how `(req, slot)` pairs match it.
    slots: Vec<ReqState>,
    /// Freed slots, reused last-freed first.
    free: Vec<u32>,
    waiting: VecDeque<(u64, u32)>,
    in_flight: usize,
    /// One breaker per provider when enabled, empty otherwise.
    breakers: Vec<CircuitBreaker>,
    report: RuntimeReport,
}

impl Sim<'_> {
    /// Per-request RNG, derived from the run seed and the request id
    /// alone — independent of event interleaving by construction.
    fn request_rng(&self, req: u64) -> SplitMix64 {
        SplitMix64::new(self.seed ^ req.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The provider rotation's starting point for request `req`: a hash
    /// of `(seed, id)`, **not** `id % providers` — a modulo offset
    /// phase-locks entire shards onto one provider whenever the shard
    /// stride divides the provider count (e.g. 3 shards × 3 providers:
    /// every request shard 0 owns would start on provider 0). The hash
    /// spreads load uniformly per shard and, being a pure function of
    /// the id, keeps the rotation invariant across shard counts.
    fn initial_provider(&self, req: u64) -> usize {
        let mut rng = SplitMix64::new(
            self.seed ^ req.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x0ff5_e7cb_a1a2_ce11,
        );
        rng.index(self.providers.len())
    }

    /// Whether any provider currently admits a dispatch (breakers
    /// enabled only); drives front-door shedding.
    fn any_provider_admits(&mut self, now: u64) -> bool {
        if self.breakers.is_empty() {
            return true;
        }
        self.breakers.iter_mut().any(|b| b.admits(now))
    }

    /// Whether `slot` still holds request `req`.
    fn is_live(&self, req: u64, slot: u32) -> bool {
        self.slots[slot as usize].id == req
    }

    /// Stores `state` in a free slot, growing the slab only when none is.
    fn occupy(&mut self, state: ReqState) -> u32 {
        if let Some(slot) = self.free.pop() {
            self.slots[slot as usize] = state;
            return slot;
        }
        let slot = u32::try_from(self.slots.len()).expect("live requests fit a u32 slot index");
        self.slots.push(state);
        slot
    }

    fn handle(&mut self, now: u64, event: Event) {
        match event {
            Event::Arrival { req } => self.on_arrival(now, req),
            Event::AttemptDone {
                req,
                slot,
                attempt,
                provider,
                ok,
                latency_ns,
                probe,
            } => self.on_attempt_done(now, req, slot, attempt, provider, ok, latency_ns, probe),
            Event::HedgeTimer { req, slot } => self.on_hedge_timer(now, req, slot),
            Event::RetryTimer { req, slot } => self.on_retry_timer(now, req, slot),
            Event::Deadline { req, slot } => self.on_deadline(now, req, slot),
        }
    }

    /// Sheds `req` at the front door with the given ledger disposition.
    fn shed_at_arrival(&mut self, now: u64, req: u64) {
        telemetry::add(Counter::ServiceRejected, 1);
        self.report.rejected += 1;
        self.report.ledger.push(RequestRecord {
            id: req,
            arrival_ns: now,
            start_ns: None,
            end_ns: now,
            attempts: 0,
            outcome: RequestOutcome::Rejected,
        });
    }

    fn on_arrival(&mut self, now: u64, req: u64) {
        telemetry::add(Counter::ServiceArrivals, 1);
        let next = req + self.step;
        if next < self.workload.requests {
            self.events.schedule(
                self.arrivals[usize::try_from(next).unwrap_or(usize::MAX)],
                Event::Arrival { req: next },
            );
        }
        if self.in_flight >= self.config.max_in_flight
            && self.waiting.len() >= self.config.queue_capacity
        {
            // Load shedding: full queue, reject at the front door.
            self.shed_at_arrival(now, req);
            return;
        }
        if !self.any_provider_admits(now) {
            // Every provider's circuit is Open: the breakers feed the
            // admission controller, so fail fast instead of queueing
            // work that has nowhere to go.
            telemetry::add(Counter::ServiceBreakerShed, 1);
            self.report.breaker_shed += 1;
            self.shed_at_arrival(now, req);
            return;
        }
        let slot = self.occupy(ReqState {
            id: req,
            arrival_ns: now,
            start_ns: None,
            attempts_started: 0,
            outstanding: 0,
            next_provider: self.initial_provider(req),
            rng: self.request_rng(req),
        });
        // The deadline budget starts at arrival, so queue time counts
        // against it: a request that waited has less execution runway
        // left once admitted.
        if self.config.deadline_ns > 0 {
            self.events.schedule(
                now.saturating_add(self.config.deadline_ns),
                Event::Deadline { req, slot },
            );
        }
        if self.in_flight < self.config.max_in_flight {
            self.start_execution(now, slot);
        } else {
            self.waiting.push_back((req, slot));
            telemetry::add(Counter::ServiceEnqueued, 1);
            telemetry::observe_ns(Timer::ServiceQueueDepth, self.waiting.len() as u64);
            self.report.peak_queue_depth = self.report.peak_queue_depth.max(self.waiting.len());
        }
    }

    /// Admits the live request in `slot` into execution.
    fn start_execution(&mut self, now: u64, slot: u32) {
        telemetry::add(Counter::ServiceAdmitted, 1);
        self.in_flight += 1;
        self.report.peak_in_flight = self.report.peak_in_flight.max(self.in_flight);
        self.slots[slot as usize].start_ns = Some(now);
        if !self.dispatch_attempt(now, slot) {
            // Breakers closed every door between arrival and admission
            // (possible after a queue wait): fail fast.
            self.resolve(now, slot, RequestOutcome::Failed);
            return;
        }
        if let RequestPolicy::Hedged {
            delay_ns,
            max_hedges,
        } = self.config.policy
        {
            if max_hedges > 0 {
                let req = self.slots[slot as usize].id;
                self.events.schedule(
                    now.saturating_add(delay_ns),
                    Event::HedgeTimer { req, slot },
                );
            }
        }
    }

    /// Dispatches the next attempt of the live request in `slot` to the
    /// first provider in its rotation whose breaker admits it, skipping
    /// Open ones. Returns `false` — dispatching nothing — when every
    /// provider's circuit refuses; the caller decides what that means
    /// for the request (fail fast, skip the hedge, charge the failover
    /// pause).
    fn dispatch_attempt(&mut self, now: u64, slot: u32) -> bool {
        let provider_count = self.providers.len();
        let rotation = self.slots[slot as usize].next_provider;
        let mut chosen = None;
        if self.breakers.is_empty() {
            chosen = Some(rotation % provider_count);
        } else {
            let mut skipped = 0u64;
            for hop in 0..provider_count {
                let idx = (rotation + hop) % provider_count;
                if self.breakers[idx].admits(now) {
                    chosen = Some(idx);
                    break;
                }
                skipped += 1;
            }
            if skipped > 0 && chosen.is_some() {
                telemetry::add(Counter::ServiceBreakerSkips, skipped);
                self.report.breaker_skips += skipped;
            }
        }
        let Some(provider_idx) = chosen else {
            return false;
        };
        let state = &mut self.slots[slot as usize];
        let req = state.id;
        let attempt = state.attempts_started;
        state.attempts_started += 1;
        state.outstanding += 1;
        // Advance the rotation past the chosen provider so the next
        // attempt tries a different one first.
        state.next_provider = provider_idx + 1;
        let mut attempt_rng = state.rng.split();
        let PlannedInvoke { latency_ns, result } = self.providers[provider_idx].plan(
            &self.workload.operation,
            &self.workload.args,
            &mut attempt_rng,
        );
        let probe = match self.breakers.get_mut(provider_idx) {
            Some(breaker) => breaker.on_dispatch(now),
            None => None,
        };
        self.events.schedule(
            now.saturating_add(latency_ns),
            Event::AttemptDone {
                req,
                slot,
                attempt,
                provider: u32::try_from(provider_idx).unwrap_or(u32::MAX),
                ok: result.is_ok(),
                latency_ns,
                probe,
            },
        );
        true
    }

    #[allow(clippy::too_many_arguments)]
    fn on_attempt_done(
        &mut self,
        now: u64,
        req: u64,
        slot: u32,
        attempt: u32,
        provider: u32,
        ok: bool,
        latency_ns: u64,
        probe: ProbeToken,
    ) {
        let breaker_idx = usize::try_from(provider).unwrap_or(usize::MAX);
        if !self.is_live(req, slot) {
            // Stale: the request resolved (hedge win, deadline) while
            // this attempt flew. A cancelled call produces no response
            // to profile — but it must still release any HalfOpen probe
            // slot its dispatch reserved, or a round whose every probe
            // is cancelled pins the breaker's quota forever and
            // blacklists the provider for the rest of the run.
            if let Some(breaker) = self.breakers.get_mut(breaker_idx) {
                breaker.on_cancel(probe);
            }
            return;
        }
        // Profile the completion into the provider's breaker.
        if let Some(breaker) = self.breakers.get_mut(breaker_idx) {
            breaker.on_result(now, probe, ok, latency_ns);
        }
        if !ok {
            telemetry::add(Counter::ServiceAttemptsFailed, 1);
            self.report.attempts_failed += 1;
        }
        let state = &mut self.slots[slot as usize];
        state.outstanding -= 1;
        let (outstanding, attempts_started) = (state.outstanding, state.attempts_started);
        if ok {
            let hedged = matches!(self.config.policy, RequestPolicy::Hedged { .. });
            if hedged && attempt > 0 {
                telemetry::add(Counter::ServiceHedgesWon, 1);
                self.report.hedges_won += 1;
            }
            let cancelled = u64::from(outstanding);
            if hedged && cancelled > 0 {
                telemetry::add(Counter::ServiceHedgesCancelled, cancelled);
                self.report.hedges_cancelled += cancelled;
            }
            self.resolve(now, slot, RequestOutcome::Ok { attempt, provider });
            return;
        }
        match self.config.policy {
            RequestPolicy::Single => {
                if outstanding == 0 {
                    self.resolve(now, slot, RequestOutcome::Failed);
                }
            }
            RequestPolicy::Hedged { max_hedges, .. } => {
                if outstanding > 0 {
                    return; // A sibling is still flying; let it race.
                }
                if attempts_started < 1 + max_hedges && self.dispatch_attempt(now, slot) {
                    // Fail-fast hedge: no point waiting for the timer
                    // when we already know the attempt died.
                    telemetry::add(Counter::ServiceHedgesFired, 1);
                    self.report.hedges_fired += 1;
                } else {
                    // Attempt budget spent — or nothing left flying and
                    // every breaker refused a replacement.
                    self.resolve(now, slot, RequestOutcome::Failed);
                }
            }
            RequestPolicy::Failover {
                max_attempts,
                backoff,
            } => {
                if attempts_started < max_attempts.max(1) {
                    let pause = backoff.delay_ns(attempts_started);
                    self.events
                        .schedule(now.saturating_add(pause), Event::RetryTimer { req, slot });
                } else if outstanding == 0 {
                    self.resolve(now, slot, RequestOutcome::Failed);
                }
            }
        }
    }

    fn on_hedge_timer(&mut self, now: u64, req: u64, slot: u32) {
        if !self.is_live(req, slot) {
            return; // Resolved before the hedge delay elapsed: no hedge needed.
        }
        let RequestPolicy::Hedged {
            delay_ns,
            max_hedges,
        } = self.config.policy
        else {
            return;
        };
        if self.slots[slot as usize].attempts_started > max_hedges {
            return;
        }
        // A hedge never targets an Open provider: when every circuit
        // refuses, skip this tick (the primary is still flying) and let
        // a later tick retry once a cooldown elapses.
        let dispatched = self.dispatch_attempt(now, slot);
        if dispatched {
            telemetry::add(Counter::ServiceHedgesFired, 1);
            self.report.hedges_fired += 1;
        }
        // Re-arm while budget remains; a skipped tick re-arms only with
        // a positive delay (a zero-delay timer would spin in place).
        if self.slots[slot as usize].attempts_started < 1 + max_hedges
            && (dispatched || delay_ns > 0)
        {
            self.events.schedule(
                now.saturating_add(delay_ns),
                Event::HedgeTimer { req, slot },
            );
        }
    }

    fn on_retry_timer(&mut self, now: u64, req: u64, slot: u32) {
        if !self.is_live(req, slot) {
            return; // Deadline beat the backoff pause.
        }
        if self.dispatch_attempt(now, slot) {
            telemetry::add(Counter::ServiceFailovers, 1);
            self.report.failovers += 1;
            return;
        }
        // Every provider's circuit refused this rotation: failover
        // *charges* the skipped attempt and its backoff pause rather
        // than spinning — the attempt budget keeps the retry loop
        // bounded even while everything is Open.
        let RequestPolicy::Failover {
            max_attempts,
            backoff,
        } = self.config.policy
        else {
            return;
        };
        let state = &mut self.slots[slot as usize];
        state.attempts_started += 1;
        if state.attempts_started < max_attempts.max(1) {
            let pause = backoff.delay_ns(state.attempts_started);
            self.events
                .schedule(now.saturating_add(pause), Event::RetryTimer { req, slot });
        } else if state.outstanding == 0 {
            self.resolve(now, slot, RequestOutcome::Failed);
        }
    }

    fn on_deadline(&mut self, now: u64, req: u64, slot: u32) {
        if !self.is_live(req, slot) {
            return; // Resolved in time; the deadline is moot.
        }
        let outstanding = self.slots[slot as usize].outstanding;
        if matches!(self.config.policy, RequestPolicy::Hedged { .. }) && outstanding > 0 {
            let cancelled = u64::from(outstanding);
            telemetry::add(Counter::ServiceHedgesCancelled, cancelled);
            self.report.hedges_cancelled += cancelled;
        }
        self.resolve(now, slot, RequestOutcome::DeadlineExceeded);
    }

    /// Terminal bookkeeping for the executing request in `slot`: ledger,
    /// telemetry, slot and admission release, dequeue.
    ///
    /// Only executing requests resolve. With one deadline budget and FIFO
    /// admission, every executing request arrived no later than every
    /// queued one, so its deadline fires first (ties fire in scheduling
    /// order) and by then it has freed a slot for the head of the queue:
    /// a queued request always starts before its own deadline fires.
    /// `services/tests/admission.rs` pins that invariant; the two
    /// assertions below make a breach loud.
    fn resolve(&mut self, now: u64, slot: u32, outcome: RequestOutcome) {
        let state = &mut self.slots[slot as usize];
        let req = std::mem::replace(&mut state.id, FREE);
        let (arrival_ns, attempts) = (state.arrival_ns, state.attempts_started);
        let Some(start_ns) = state.start_ns else {
            unreachable!("request {req} resolved while still queued");
        };
        self.free.push(slot);
        let (counter, tally) = match outcome {
            RequestOutcome::Ok { .. } => (Counter::ServiceOk, &mut self.report.ok),
            RequestOutcome::Failed => (Counter::ServiceFailed, &mut self.report.failed),
            RequestOutcome::DeadlineExceeded => (
                Counter::ServiceDeadlineExceeded,
                &mut self.report.deadline_exceeded,
            ),
            RequestOutcome::Rejected => unreachable!("rejections never become live requests"),
        };
        telemetry::add(counter, 1);
        *tally += 1;
        telemetry::observe_ns(Timer::ServiceLatencyNs, now - arrival_ns);
        telemetry::observe_ns(Timer::ServiceQueueWaitNs, start_ns - arrival_ns);
        self.report.ledger.push(RequestRecord {
            id: req,
            arrival_ns,
            start_ns: Some(start_ns),
            end_ns: now,
            attempts,
            outcome,
        });
        // The request frees its admission slot; pull the next waiters.
        self.in_flight -= 1;
        while self.in_flight < self.config.max_in_flight {
            let Some((next, next_slot)) = self.waiting.pop_front() else {
                break;
            };
            assert!(
                self.is_live(next, next_slot),
                "queued request {next} died before it started"
            );
            telemetry::add(Counter::ServiceDequeued, 1);
            self.start_execution(now, next_slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::InterfaceId;

    fn provider(id: &str, fail: f64, base_ns: u64) -> Arc<dyn PlannedProvider> {
        Arc::new(
            SimProvider::builder(id, InterfaceId::new("echo"))
                .fail_prob(fail)
                .latency(base_ns, base_ns / 10)
                .operation("ping", |_, _| Ok(Value::Str("pong".into())))
                .build(),
        )
    }

    fn spiky_provider(
        id: &str,
        base_ns: u64,
        spike_prob: f64,
        spike_ns: u64,
    ) -> Arc<dyn PlannedProvider> {
        Arc::new(
            SimProvider::builder(id, InterfaceId::new("echo"))
                .latency(base_ns, base_ns / 10)
                .latency_spike(spike_prob, spike_ns)
                .operation("ping", |_, _| Ok(Value::Str("pong".into())))
                .build(),
        )
    }

    fn workload(requests: u64) -> Workload {
        Workload::poisson(requests, 1_000, "ping")
    }

    fn runtime(policy: RequestPolicy, providers: Vec<Arc<dyn PlannedProvider>>) -> ServiceRuntime {
        ServiceRuntime::new(
            providers,
            RuntimeConfig {
                policy,
                deadline_ns: 0,
                max_in_flight: 64,
                queue_capacity: 256,
                breaker: None,
            },
        )
    }

    #[test]
    fn healthy_single_policy_completes_everything() {
        let rt = runtime(
            RequestPolicy::Single,
            vec![provider("p0", 0.0, 500), provider("p1", 0.0, 500)],
        );
        let report = rt.run(&workload(2_000), 1);
        assert_eq!(report.ok, 2_000);
        assert_eq!(
            report.failed + report.rejected + report.deadline_exceeded,
            0
        );
        assert_eq!(report.ledger.len(), 2_000);
        assert_eq!(report.hedges_fired, 0);
        assert!(report.makespan_ns > 0);
        assert!(report.goodput_per_sec() > 0.0);
        // Nothing was shed, so goodput and offered load coincide.
        assert!((report.goodput_per_sec() - report.offered_per_sec()).abs() < 1e-9);
        // Every id resolves exactly once.
        let mut ids: Vec<u64> = report.ledger.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 2_000);
    }

    #[test]
    fn same_seed_gives_a_bit_identical_ledger() {
        let build = || {
            runtime(
                RequestPolicy::Hedged {
                    delay_ns: 2_000,
                    max_hedges: 2,
                },
                vec![
                    spiky_provider("a", 1_000, 0.05, 50_000),
                    spiky_provider("b", 1_000, 0.05, 50_000),
                    spiky_provider("c", 1_000, 0.05, 50_000),
                ],
            )
        };
        let first = build().run(&workload(5_000), 0x5eed_2008);
        let second = build().run(&workload(5_000), 0x5eed_2008);
        assert_eq!(first, second, "ledger must be bit-identical per seed");
        assert_eq!(first.ledger_digest(), second.ledger_digest());
        let other_seed = build().run(&workload(5_000), 0x5eed_2009);
        assert_ne!(
            first.ledger_digest(),
            other_seed.ledger_digest(),
            "different seeds explore different runs"
        );
    }

    #[test]
    fn hedging_cuts_the_latency_tail_under_spikes() {
        let spiky = || {
            vec![
                spiky_provider("a", 1_000, 0.05, 100_000),
                spiky_provider("b", 1_000, 0.05, 100_000),
                spiky_provider("c", 1_000, 0.05, 100_000),
            ]
        };
        let unhedged = runtime(RequestPolicy::Single, spiky()).run(&workload(20_000), 7);
        let hedged = runtime(
            RequestPolicy::Hedged {
                delay_ns: 3_000,
                max_hedges: 2,
            },
            spiky(),
        )
        .run(&workload(20_000), 7);
        assert_eq!(unhedged.ok, 20_000);
        assert_eq!(hedged.ok, 20_000);
        let (p99_plain, p99_hedged) = (
            unhedged.latency_quantile(0.99).unwrap(),
            hedged.latency_quantile(0.99).unwrap(),
        );
        // 5% spikes of 100 µs on a 1 µs base: unhedged p99 sits on the
        // spike; a 3 µs hedge caps it near 2 × base + delay.
        assert!(
            p99_hedged * 10 < p99_plain,
            "hedged p99 {p99_hedged} not ≪ unhedged {p99_plain}"
        );
        assert!(hedged.hedges_fired > 0);
        assert!(hedged.hedges_won > 0);
        assert!(hedged.hedges_cancelled > 0);
    }

    #[test]
    fn failover_survives_a_dead_primary_within_budget() {
        let rt = ServiceRuntime::new(
            vec![provider("dead", 1.0, 500), provider("alive", 0.0, 500)],
            RuntimeConfig {
                policy: RequestPolicy::Failover {
                    max_attempts: 3,
                    backoff: Backoff::Fixed(1_000),
                },
                deadline_ns: 1_000_000,
                max_in_flight: 64,
                queue_capacity: 256,
                breaker: None,
            },
        );
        let report = rt.run(&workload(2_000), 3);
        // Every request reaches the live provider within two attempts
        // (round-robin start means half hit "alive" first).
        assert_eq!(report.ok, 2_000);
        assert!(report.failovers > 0, "dead primary forces failovers");
        // Requests starting on the dead provider record attempt 1 wins.
        let failover_wins = report
            .ledger
            .iter()
            .filter(|r| matches!(r.outcome, RequestOutcome::Ok { attempt, .. } if attempt > 0))
            .count();
        assert_eq!(failover_wins as u64, report.failovers);
    }

    #[test]
    fn all_dead_providers_fail_after_exhausting_attempts() {
        let rt = runtime(
            RequestPolicy::Failover {
                max_attempts: 3,
                backoff: Backoff::None,
            },
            vec![provider("d0", 1.0, 100), provider("d1", 1.0, 100)],
        );
        let report = rt.run(&workload(500), 5);
        assert_eq!(report.failed, 500);
        assert_eq!(report.ok, 0);
        assert!(report.ledger.iter().all(|r| r.attempts == 3));
    }

    #[test]
    fn deadlines_bound_every_latency() {
        let rt = ServiceRuntime::new(
            vec![spiky_provider("s", 1_000, 0.2, 10_000_000)],
            RuntimeConfig {
                policy: RequestPolicy::Single,
                deadline_ns: 50_000,
                max_in_flight: 8,
                queue_capacity: 64,
                breaker: None,
            },
        );
        let report = rt.run(&workload(3_000), 11);
        assert!(
            report.deadline_exceeded > 0,
            "big spikes must blow the budget"
        );
        for record in &report.ledger {
            assert!(
                record.latency_ns() <= 50_000,
                "request {} latency {} exceeds its budget",
                record.id,
                record.latency_ns()
            );
        }
    }

    #[test]
    fn admission_control_bounds_concurrency_and_sheds_load() {
        // 100 ms provider latency vs 1 µs interarrivals: arrivals
        // massively outrun completions, so the queue fills and the rest
        // is shed.
        let rt = ServiceRuntime::new(
            vec![provider("slow", 0.0, 100_000_000)],
            RuntimeConfig {
                policy: RequestPolicy::Single,
                deadline_ns: 0,
                max_in_flight: 4,
                queue_capacity: 16,
                breaker: None,
            },
        );
        let report = rt.run(&workload(500), 2);
        assert_eq!(report.peak_in_flight, 4, "admission cap respected");
        assert!(report.peak_queue_depth <= 16, "queue bound respected");
        assert!(report.rejected > 0, "overload must shed");
        assert_eq!(
            report.ok + report.failed + report.rejected + report.deadline_exceeded,
            500,
            "every request has exactly one disposition"
        );
        // Queued-then-served requests record their wait.
        assert!(report
            .ledger
            .iter()
            .any(|r| r.start_ns.is_some_and(|s| s > r.arrival_ns)));
    }

    #[test]
    fn queue_wait_counts_against_the_deadline_budget() {
        // 1 ms service time through a single slot with ~instant
        // arrivals: only ~5 requests finish inside the 5 ms budget.
        // The budget is armed at *arrival*, so the rest die at exactly
        // arrival + budget — a request that waited in the backpressure
        // queue gets correspondingly less execution runway, it does not
        // restart the clock at admission.
        let rt = ServiceRuntime::new(
            vec![provider("slow", 0.0, 1_000_000)],
            RuntimeConfig {
                policy: RequestPolicy::Single,
                deadline_ns: 5_000_000,
                max_in_flight: 1,
                queue_capacity: 64,
                breaker: None,
            },
        );
        let report = rt.run(&workload(100), 4);
        assert!(report.deadline_exceeded > 0, "the backlog must time out");
        let mut killed_after_queueing = 0;
        for record in &report.ledger {
            if record.outcome != RequestOutcome::DeadlineExceeded {
                continue;
            }
            assert_eq!(
                record.latency_ns(),
                5_000_000,
                "deadline deaths land at exactly arrival + budget"
            );
            let start = record.start_ns.expect("FIFO admission reaches the head");
            if start > record.arrival_ns {
                assert!(
                    record.end_ns - start < 5_000_000,
                    "queue wait must shrink the runway left after admission"
                );
                killed_after_queueing += 1;
            }
        }
        assert!(
            killed_after_queueing > 0,
            "some victims waited in queue first"
        );
    }

    #[test]
    fn single_policy_millions_scale_smoke() {
        // 200k requests through the loop in one test: the structure the
        // "millions in flight" claim rests on (bounded heap, lazy
        // cancellation, O(log n) scheduling) at a size CI can afford.
        let rt = ServiceRuntime::new(
            vec![provider("p", 0.0, 50_000), provider("q", 0.0, 50_000)],
            RuntimeConfig {
                policy: RequestPolicy::Single,
                deadline_ns: 0,
                max_in_flight: 100_000,
                queue_capacity: 100_000,
                breaker: None,
            },
        );
        let mut load = workload(200_000);
        load.arrival = ArrivalProcess::Poisson { mean_gap_ns: 10 }; // brutal arrival rate
        let report = rt.run(&load, 6);
        assert_eq!(report.ok, 200_000);
        assert!(report.peak_in_flight > 1_000, "true concurrency reached");
    }

    #[test]
    fn slice_ledgers_reserve_exactly_the_ids_they_own() {
        // Slice `first` of `step` owns ⌈(requests − first) / step⌉ ids,
        // not requests / step: 2 000 over 3 gives slice 0 667 of them.
        let rt = runtime(RequestPolicy::Single, vec![provider("p", 0.0, 500)]);
        for (requests, step) in [(2_000, 3), (10, 4), (7, 8), (1, 2)] {
            let load = workload(requests);
            let arrivals = load.arrival.arrival_times(requests, 5);
            for first in 0..step {
                let report = rt.run_slice(&load, 5, &arrivals, first, step);
                let owned = (first..requests).step_by(step as usize).count();
                assert_eq!(report.ledger.len(), owned);
                assert_eq!(
                    report.ledger.capacity(),
                    owned,
                    "slice {first} of {step} over {requests} requests"
                );
            }
        }
    }

    #[test]
    fn report_quantiles_are_exact_nearest_rank() {
        let mut report = RuntimeReport {
            ledger: (0..100)
                .map(|i| RequestRecord {
                    id: i,
                    arrival_ns: 0,
                    start_ns: Some(0),
                    end_ns: (i + 1) * 10,
                    attempts: 1,
                    outcome: RequestOutcome::Ok {
                        attempt: 0,
                        provider: 0,
                    },
                })
                .collect(),
            makespan_ns: 1_000,
            ok: 100,
            peak_in_flight: 1,
            ..RuntimeReport::default()
        };
        assert_eq!(report.latency_quantile(0.5), Some(500));
        assert_eq!(report.latency_quantile(0.99), Some(990));
        assert_eq!(report.latency_quantile(1.0), Some(1_000));
        assert_eq!(report.latency_quantile(0.0), Some(10));
        report.ledger.clear();
        assert_eq!(report.latency_quantile(0.5), None);
    }

    #[test]
    fn quantiles_survive_degenerate_inputs() {
        let single = RuntimeReport {
            ledger: vec![RequestRecord {
                id: 0,
                arrival_ns: 0,
                start_ns: Some(0),
                end_ns: 42,
                attempts: 1,
                outcome: RequestOutcome::Ok {
                    attempt: 0,
                    provider: 0,
                },
            }],
            ok: 1,
            makespan_ns: 42,
            ..RuntimeReport::default()
        };
        // One sample answers every quantile.
        assert_eq!(single.latency_quantile(0.0), Some(42));
        assert_eq!(single.latency_quantile(0.5), Some(42));
        assert_eq!(single.latency_quantile(1.0), Some(42));
        // The NaN bug: `q.max(…)`-style clamps silently swallow NaN and
        // used to index with a garbage rank. Non-finite q is a caller
        // error and now answers None instead of an arbitrary sample.
        assert_eq!(single.latency_quantile(f64::NAN), None);
        assert_eq!(single.latency_quantile(f64::INFINITY), None);
        assert_eq!(single.latency_quantile(f64::NEG_INFINITY), None);
        // Finite out-of-range q clamps to the nearest end of the ladder.
        assert_eq!(single.latency_quantile(7.5), Some(42));
        assert_eq!(single.latency_quantile(-0.5), Some(42));
        // An empty ledger has no quantiles at all, finite q or not.
        let empty = RuntimeReport::default();
        assert_eq!(empty.latency_quantile(0.5), None);
        assert_eq!(empty.latency_quantile(f64::NAN), None);
    }

    #[test]
    fn goodput_excludes_shed_and_timed_out_requests() {
        // The throughput bug: `requests_per_sec` divided the *ledger
        // length* by the makespan, so a run that shed half its load at
        // admission reported the same "throughput" as one that served
        // everything. Pin the split: offered counts every disposition,
        // goodput only the acceptable responses.
        let rt = ServiceRuntime::new(
            vec![provider("slow", 0.0, 100_000_000)],
            RuntimeConfig {
                policy: RequestPolicy::Single,
                deadline_ns: 0,
                max_in_flight: 4,
                queue_capacity: 16,
                breaker: None,
            },
        );
        let report = rt.run(&workload(500), 2);
        assert!(report.rejected > 0, "the scenario must shed load");
        let span_secs = report.makespan_ns as f64 / 1e9;
        let offered = report.offered_per_sec();
        let goodput = report.goodput_per_sec();
        assert!((offered - 500.0 / span_secs).abs() < 1e-6);
        assert!((goodput - report.ok as f64 / span_secs).abs() < 1e-6);
        assert!(
            goodput < offered,
            "shed load must open a gap: goodput {goodput} vs offered {offered}"
        );
        // Zero-makespan reports rate nothing instead of dividing by 0.
        let empty = RuntimeReport::default();
        assert_eq!(empty.offered_per_sec(), 0.0);
        assert_eq!(empty.goodput_per_sec(), 0.0);
    }

    #[test]
    fn breaker_sheds_arrivals_once_every_circuit_opens() {
        let rt = ServiceRuntime::new(
            vec![provider("dead", 1.0, 1_000)],
            RuntimeConfig {
                policy: RequestPolicy::Single,
                deadline_ns: 0,
                max_in_flight: 64,
                queue_capacity: 256,
                breaker: Some(BreakerConfig {
                    window: 16,
                    failure_pct: 50,
                    min_samples: 8,
                    cooldown_ns: 10_000_000,
                    half_open_probes: 2,
                    slow_call_ns: 0,
                }),
            },
        );
        let report = rt.run(&workload(1_000), 9);
        assert!(report.breaker_opens > 0, "a dead provider must trip");
        assert!(
            report.breaker_shed > 0,
            "once the only circuit is open, arrivals shed at the front door"
        );
        assert_eq!(report.ok, 0);
        assert_eq!(
            report.failed + report.rejected + report.deadline_exceeded,
            1_000
        );
        // Shedding spares the provider: far fewer attempts fail than the
        // breakerless run's 1000.
        assert!(
            report.attempts_failed < 500,
            "breaker must cut failed attempts, saw {}",
            report.attempts_failed
        );
    }

    #[test]
    fn breaker_routes_around_a_sick_provider() {
        let pool = || vec![provider("sick", 0.9, 1_000), provider("fine", 0.0, 1_000)];
        let with_breaker = |breaker| {
            ServiceRuntime::new(
                pool(),
                RuntimeConfig {
                    policy: RequestPolicy::Failover {
                        max_attempts: 4,
                        backoff: Backoff::None,
                    },
                    deadline_ns: 0,
                    max_in_flight: 64,
                    queue_capacity: 256,
                    breaker,
                },
            )
            .run(&workload(4_000), 21)
        };
        let without = with_breaker(None);
        let with = with_breaker(Some(BreakerConfig {
            window: 32,
            failure_pct: 60,
            min_samples: 16,
            cooldown_ns: 2_000_000,
            half_open_probes: 3,
            slow_call_ns: 0,
        }));
        assert!(with.breaker_opens > 0, "the sick provider must trip");
        assert!(
            with.breaker_skips > 0,
            "rotation must route around the open circuit"
        );
        assert!(
            with.attempts_failed < without.attempts_failed,
            "breaker must cut failed attempts: {} vs {}",
            with.attempts_failed,
            without.attempts_failed
        );
        // Routing around the sick provider must not cost availability.
        assert!(with.ok >= without.ok);
    }

    #[test]
    fn cancelled_probes_do_not_blacklist_a_provider() {
        // Regression for the probe-reservation leak: the sole provider
        // fails fast half the time (which trips its breaker) and spikes
        // past the deadline the other half — spiked attempts die of
        // deadline while still in flight, so their completions pop
        // stale and the call is *cancelled*. Probes dispatched into a
        // spike are cancelled the same way; when their reservations
        // leaked, the first HalfOpen round whose every probe was
        // cancelled pinned `probes_in_flight` at the quota forever and
        // every later arrival was shed at the front door.
        let rt = ServiceRuntime::new(
            vec![Arc::new(
                SimProvider::builder("flappy", InterfaceId::new("echo"))
                    .fail_prob(0.5)
                    .latency(1_000, 100)
                    .latency_spike(0.5, 60_000)
                    .operation("ping", |_, _| Ok(Value::Str("pong".into())))
                    .build(),
            )],
            RuntimeConfig {
                policy: RequestPolicy::Single,
                deadline_ns: 20_000,
                max_in_flight: 64,
                queue_capacity: 256,
                breaker: Some(BreakerConfig {
                    window: 8,
                    failure_pct: 50,
                    min_samples: 4,
                    cooldown_ns: 5_000,
                    half_open_probes: 2,
                    slow_call_ns: 0,
                }),
            },
        );
        let report = rt.run(&workload(4_000), 13);
        // Cancelled probes must keep the Open/HalfOpen cycle alive: the
        // circuit re-trips many times over the run instead of freezing
        // in its first cancelled probe round...
        assert!(
            report.breaker_opens > 5,
            "the circuit must keep cycling, saw {} opens",
            report.breaker_opens
        );
        // ...and late arrivals still reach the provider. With the leak,
        // every request after the poisoned round was shed, so the tail
        // of the id space had no Ok (nor even Failed) rows at all.
        let late_served = report
            .ledger
            .iter()
            .filter(|r| r.id >= 3_000 && r.start_ns.is_some())
            .count();
        assert!(
            late_served > 0,
            "late arrivals must still be admitted after probe cancellations"
        );
        assert!(
            report
                .ledger
                .iter()
                .any(|r| r.id >= 3_000 && matches!(r.outcome, RequestOutcome::Ok { .. })),
            "the provider's healthy half must keep serving late requests"
        );
    }

    #[test]
    fn breaker_runs_stay_deterministic() {
        let build = || {
            ServiceRuntime::new(
                vec![provider("sick", 0.8, 1_000), provider("fine", 0.0, 1_000)],
                RuntimeConfig {
                    policy: RequestPolicy::Hedged {
                        delay_ns: 3_000,
                        max_hedges: 1,
                    },
                    deadline_ns: 0,
                    max_in_flight: 64,
                    queue_capacity: 256,
                    breaker: Some(BreakerConfig::default()),
                },
            )
        };
        let first = build().run(&workload(3_000), 17);
        let second = build().run(&workload(3_000), 17);
        assert_eq!(first, second, "breaker runs must be bit-identical");
    }

    #[test]
    fn bursty_arrivals_run_through_the_same_loop() {
        let mut load = workload(2_000);
        load.arrival = ArrivalProcess::OnOff {
            on_gap_ns: 200,
            off_gap_ns: 20_000,
            on_ns: 100_000,
            off_ns: 400_000,
        };
        let report = runtime(
            RequestPolicy::Hedged {
                delay_ns: 3_000,
                max_hedges: 2,
            },
            vec![
                spiky_provider("a", 1_000, 0.05, 50_000),
                spiky_provider("b", 1_000, 0.05, 50_000),
            ],
        )
        .run(&load, 23);
        assert_eq!(
            report.ok + report.failed + report.rejected + report.deadline_exceeded,
            2_000
        );
        // Bursts pile requests up far beyond the steady-state level a
        // Poisson stream at the same mean would reach.
        assert!(report.peak_in_flight > 8);
    }

    #[test]
    #[should_panic(expected = "at least one provider")]
    fn empty_provider_pool_panics() {
        let _ = ServiceRuntime::new(vec![], RuntimeConfig::default());
    }
}
