//! Timed passes, output checks and the traced run's per-layer breakdown.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use redundancy_core::obs::telemetry::{Counter, Telemetry, TelemetrySnapshot, Timer};

use crate::probe::{self, Collected, Count, Layer};
use crate::refs::{self, Pinned};
use crate::stats::{median, quantile};
use crate::workload::{reference, seed_set, Bench, Fingerprint, Kind, Output, SEED_SET};

/// Where a run's reference fingerprints came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// `references.tsv`.
    Pinned,
    /// Computed for this run on another path than the timed one (base
    /// seed not pinned).
    SelfConsistency,
}

/// The expected fingerprint of every call seed of one run.
#[derive(Debug, Clone)]
pub struct Checker {
    /// The call seeds, in cycle order.
    pub seeds: [u64; SEED_SET],
    /// Expected fingerprint per call seed.
    pub expected: Vec<Fingerprint>,
    /// Where `expected` came from.
    pub source: Source,
}

impl Checker {
    /// The references for `kind` on `base`: pinned when `pinned` has
    /// them, otherwise computed with [`reference`].
    #[must_use]
    pub fn new(kind: Kind, base: u64, items: usize, pinned: &Pinned) -> Self {
        let seeds = seed_set(base);
        match pinned.get(&refs::key(kind, items), base) {
            Some(expected) => Checker {
                seeds,
                expected: expected.clone(),
                source: Source::Pinned,
            },
            None => Checker {
                seeds,
                expected: seeds
                    .iter()
                    .map(|&seed| reference(kind, seed, items).fingerprint())
                    .collect(),
                source: Source::SelfConsistency,
            },
        }
    }

    /// Whether `output` of call seed `index` accounts for all `items`
    /// and matches its reference field for field.
    #[must_use]
    pub fn check(&self, index: usize, output: &Output, items: usize) -> bool {
        output.accounts_for(items) && output.fingerprint() == self.expected[index]
    }
}

/// What one timed pass measured.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Host time of each call, ns.
    pub totals: Vec<f64>,
    /// Host time of each call's in-call report summaries, ns.
    pub report: Vec<f64>,
    /// Calls made.
    pub attempted: usize,
    /// Calls that panicked or failed their output check.
    pub failed: usize,
    /// Items completed by the calls.
    pub items: usize,
    /// Wall time of the pass, ns.
    pub wall_ns: f64,
    /// Allocations (engine entry point, report summaries) and bytes
    /// counted during calls (instrumented benches only).
    pub allocs: [u64; 3],
    /// The last fingerprint seen per call seed.
    pub seen: Vec<Option<Fingerprint>>,
    /// Call number and seed index of the last call.
    pub last: Option<(usize, usize)>,
}

impl Pass {
    /// Items per second of call time.
    #[must_use]
    pub fn items_per_s(&self) -> f64 {
        self.items as f64 / (self.totals.iter().sum::<f64>() / 1e9)
    }

    /// Host time outside calls during the pass, ns.
    #[must_use]
    pub fn gap_ns(&self) -> f64 {
        (self.wall_ns - self.totals.iter().sum::<f64>()).max(0.0)
    }
}

/// Makes calls on `bench`, cycling through `checker`'s seeds from call
/// number `first`, until `budget` has passed; checks every output and
/// hands it to `inspect`. Panicking calls count as failed.
pub fn timed_pass(
    bench: &Bench,
    checker: &Checker,
    budget: Duration,
    first: usize,
    mut inspect: impl FnMut(&Output),
) -> Pass {
    let mut pass = Pass {
        seen: vec![None; SEED_SET],
        ..Pass::default()
    };
    let items = bench.items();
    let started = Instant::now();
    let mut call = first;
    while pass.attempted == 0 || started.elapsed() < budget {
        let index = call % SEED_SET;
        let result = catch_unwind(AssertUnwindSafe(|| bench.call(checker.seeds[index], call)));
        pass.attempted += 1;
        pass.last = Some((call, index));
        call += 1;
        let Ok((output, timing, allocs)) = result else {
            pass.failed += 1;
            continue;
        };
        pass.totals.push(timing.total.as_nanos() as f64);
        pass.report.push(timing.report.as_nanos() as f64);
        for (sum, n) in pass.allocs.iter_mut().zip(allocs) {
            *sum += n;
        }
        pass.items += items;
        if !checker.check(index, &output, items) {
            pass.failed += 1;
        }
        inspect(&output);
        pass.seen[index] = Some(output.fingerprint());
    }
    pass.wall_ns = started.elapsed().as_nanos() as f64;
    pass
}

/// One row of a breakdown: a layer's share of an item's host time.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Layer (module) name.
    pub name: &'static str,
    /// Thread-ns per item.
    pub ns_per_item: f64,
    /// How the row was measured.
    pub how: &'static str,
}

/// The traced run's result for one workload.
#[derive(Debug, Clone)]
pub struct Breakdown {
    /// Rows summing to `total_ns_per_item`; the last is `unattributed`.
    pub rows: Vec<Row>,
    /// Call host time × busy threads ÷ items (thread-ns per item).
    pub total_ns_per_item: f64,
    /// Factor the sampled closure rows were scaled by (campaigns; see
    /// the module docs of [`crate::probe`]), 1 otherwise.
    pub closure_scale: f64,
    /// Every per-layer metric, 0 where the layer is not exercised.
    pub metrics: Vec<(&'static str, f64)>,
    /// Calls made by every pass of the traced run.
    pub attempted: usize,
    /// Calls that failed their check in any pass.
    pub failed: usize,
    /// Whether `nproc` > 1, i.e. the speed-up metrics mean something.
    pub parallel_verified: bool,
    /// Recorder overhead per span, `(c_in, c_out)` ns.
    pub span_cost: (f64, f64),
    /// Spans kept for the span file.
    pub spans: Vec<probe::SpanRec>,
    /// The last fingerprint the instrumented pass saw per call seed.
    pub seen: Vec<Option<Fingerprint>>,
    /// Call number and seed index of the instrumented pass's last call.
    pub last: Option<(usize, usize)>,
}

/// Everything an instrumented pass recorded.
struct Probed {
    pass: Pass,
    collected: Collected,
    telemetry: TelemetrySnapshot,
    /// Summed report fields of the pass's calls (service workloads).
    service: ServiceTotals,
    /// Threads a call keeps busy.
    threads: usize,
}

#[derive(Debug, Clone, Copy, Default)]
struct ServiceTotals {
    hedges_fired: u64,
    hedges_won: u64,
    hedges_cancelled: u64,
    failovers: u64,
    peak_queue_depth: u64,
    rejected: u64,
    breaker_opens: u64,
    breaker_skips: u64,
    breaker_shed: u64,
    queue_wait_p99_ns: f64,
    calls: u64,
}

impl ServiceTotals {
    fn add(&mut self, output: &Output) {
        let Output::Service(out) = output else {
            return;
        };
        let r = &out.report;
        self.hedges_fired += r.hedges_fired;
        self.hedges_won += r.hedges_won;
        self.hedges_cancelled += r.hedges_cancelled;
        self.failovers += r.failovers;
        self.peak_queue_depth += r.peak_queue_depth as u64;
        self.rejected += r.rejected;
        self.breaker_opens += r.breaker_opens;
        self.breaker_skips += r.breaker_skips;
        self.breaker_shed += r.breaker_shed;
        let waits: Vec<f64> = r
            .ledger
            .iter()
            .filter_map(|rec| rec.start_ns.map(|start| (start - rec.arrival_ns) as f64))
            .collect();
        if !waits.is_empty() {
            self.queue_wait_p99_ns += quantile(&waits, 0.99);
        }
        self.calls += 1;
    }
}

/// Runs an instrumented pass: wrappers, counters, sampled spans, the
/// telemetry gate and the counting allocator all on.
fn probed_pass(bench: &Bench, checker: &Checker, budget: Duration, first: usize) -> Probed {
    let telemetry = Telemetry::global();
    telemetry.set_enabled(true);
    probe::set_enabled(true);
    // A primer call, so helper threads start the pass parked from a
    // known point; its idle tail is what the gap correction leaves in.
    let _ = catch_unwind(AssertUnwindSafe(|| {
        bench.call(checker.seeds[first % SEED_SET], first)
    }));
    telemetry.reset();
    probe::reset();
    let mut service = ServiceTotals::default();
    let pass = timed_pass(bench, checker, budget, first + 1, |out| service.add(out));
    let telemetry_snapshot = telemetry.snapshot();
    probe::set_enabled(false);
    telemetry.set_enabled(false);
    Probed {
        pass,
        collected: probe::collect(),
        telemetry: telemetry_snapshot,
        service,
        threads: bench.kind().threads(bench.jobs()),
    }
}

impl Probed {
    fn items(&self) -> f64 {
        self.pass.items as f64
    }

    /// Call host time × busy threads per item.
    fn total_per_item(&self) -> f64 {
        self.pass.totals.iter().sum::<f64>() * self.threads as f64 / self.items()
    }

    /// Trial-closure time per trial (campaign workloads): the mean of
    /// the unsampled trials, each timed whole, less one clock read.
    fn closure_per_trial(&self) -> f64 {
        let timed = self.count(Count::Items);
        ratio(self.count(Count::ItemNs), timed) - probe::span_cost().0
    }

    /// How much of an average trial's closure time a sampled trial's
    /// corrected span time represents: the factor the sampled
    /// breakdown is scaled by so the closure rows add up to the
    /// closure time (1 when sampling costs what calibration says).
    fn closure_scale(&self) -> f64 {
        ratio(
            self.closure_per_trial(),
            self.collected.layer(Layer::Trial).mean_total(),
        )
    }

    fn timer_sum(&self, timer: Timer) -> f64 {
        self.telemetry.timer(timer).sum() as f64
    }

    /// Pool-worker idle time inside calls per item: `WorkerIdleNs` minus
    /// the parked time between calls, which every helper also records.
    fn idle_per_item(&self, helpers: usize) -> f64 {
        let idle = self.telemetry.counter(Counter::WorkerIdleNs) as f64;
        ((idle - helpers as f64 * self.pass.gap_ns()) / self.items()).max(0.0)
    }

    fn count(&self, which: Count) -> f64 {
        self.collected.count(which) as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Budget shares of a traced run's passes.
struct Plan {
    untraced: f64,
    /// The speed-up pass at the other end of `1..=nproc`.
    other: f64,
    probed: f64,
    baseline: f64,
}

fn plan(kind: Kind) -> Plan {
    match kind {
        Kind::Campaign => Plan {
            untraced: 0.3,
            other: 0.3,
            probed: 0.4,
            baseline: 0.0,
        },
        Kind::CampaignTraced | Kind::CampaignResumable => Plan {
            untraced: 0.2,
            other: 0.2,
            probed: 0.35,
            baseline: 0.25,
        },
        Kind::SvcHedged => Plan {
            untraced: 0.4,
            other: 0.0,
            probed: 0.6,
            baseline: 0.0,
        },
        Kind::SvcFailover => Plan {
            untraced: 0.25,
            other: 0.2,
            probed: 0.35,
            baseline: 0.2,
        },
    }
}

/// The traced run: an untraced pass at the workload's `jobs` (the
/// overhead baseline), an untraced pass at the other end of `1..=nproc`
/// (for the speed-up), an instrumented pass, and an instrumented pass of
/// the workload's [`Kind::baseline`] if it has one: `campaign` for the
/// traced and resumable runners (the obs and checkpoint layers are the
/// difference from it), the hedged replay for `svc-failover` (its
/// hedging metrics). Every call of every pass is checked against its
/// checker.
#[must_use]
pub fn traced_run(
    plain: &mut Bench,
    instrumented: &Bench,
    baseline: Option<(&Bench, &Checker)>,
    checker: &Checker,
    seconds: f64,
    nproc: usize,
) -> Breakdown {
    let kind = plain.kind();
    let jobs = plain.jobs();
    let shares = plan(kind);
    let budget = |share: f64| Duration::from_secs_f64(seconds * share);
    let span_cost = probe::calibrate(kind.threads(jobs));

    let untraced = timed_pass(plain, checker, budget(shares.untraced), 0, |_| {});
    // The speed-up pass runs the same bench at the other end of 1..nproc.
    let other_jobs = if jobs > 1 { 1 } else { nproc };
    let other = (shares.other > 0.0 && other_jobs != jobs).then(|| {
        plain.set_jobs(other_jobs);
        let pass = timed_pass(plain, checker, budget(shares.other), 0, |_| {});
        plain.set_jobs(jobs);
        pass
    });
    let speedup = other.as_ref().map_or(0.0, |o| {
        let (parallel, serial) = if jobs > 1 {
            (&untraced, o)
        } else {
            (o, &untraced)
        };
        parallel.items_per_s() / serial.items_per_s()
    });
    let probed = probed_pass(instrumented, checker, budget(shares.probed), 0);
    let base = baseline
        .map(|(bench, base_checker)| probed_pass(bench, base_checker, budget(shares.baseline), 0));

    let mut attempted = untraced.attempted + probed.pass.attempted;
    let mut failed = untraced.failed + probed.pass.failed;
    for pass in other.iter().chain(base.as_ref().map(|b| &b.pass)) {
        attempted += pass.attempted;
        failed += pass.failed;
    }
    let trace_overhead = ratio(median(&probed.pass.totals), median(&untraced.totals));

    let total = probed.total_per_item();
    let mut rows = Vec::new();
    let mut m: Vec<(&'static str, f64)> = crate::metrics::PER_LAYER
        .iter()
        .map(|(name, _)| (*name, 0.0))
        .collect();
    let mut set = |name: &str, value: f64| {
        let slot = m
            .iter_mut()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("undeclared metric {name}"));
        slot.1 = value;
    };
    let items = probed.items();
    let (allocs_engine, allocs_report, bytes) = (
        probed.pass.allocs[0] as f64,
        probed.pass.allocs[1] as f64,
        probed.pass.allocs[2] as f64,
    );

    let mut closure_scale = 1.0;
    if kind.is_campaign() {
        let c = &probed.collected;
        closure_scale = probed.closure_scale();
        let variant = closure_scale * c.layer(Layer::Variant).mean_self();
        let adjudicator = closure_scale * c.layer(Layer::Adjudicator).mean_self();
        let patterns = closure_scale * c.layer(Layer::Patterns).mean_self();
        let trial = closure_scale * c.layer(Layer::Trial).mean_self();
        let calls = probed.pass.attempted as f64;
        rows.push(Row {
            name: "faults.variant",
            ns_per_item: variant * probed.count(Count::VariantCalls) / items,
            how: "wrapped Variant::execute: sampled spans x exact calls",
        });
        rows.push(Row {
            name: "core.adjudicator",
            ns_per_item: adjudicator * probed.count(Count::Votes) / items,
            how: "wrapped MajorityVoter: sampled spans x exact votes",
        });
        rows.push(Row {
            name: "core.patterns",
            ns_per_item: patterns,
            how: "ParallelEvaluation::run span minus wrapped children",
        });
        rows.push(Row {
            name: "bench.trial",
            ns_per_item: trial,
            how: "trial closure (context, classification) minus pattern run",
        });
        let sink = c.layer(Layer::Sink).mean_total() * probed.count(Count::SinkEvents) / items;
        let stall = probed.timer_sum(Timer::MergerStallNs) / items;
        let write = probed.timer_sum(Timer::CheckpointCommitNs) / items;
        let idle = probed.idle_per_item(jobs - 1);
        if kind == Kind::CampaignTraced {
            rows.push(Row {
                name: "obs.sink",
                ns_per_item: sink,
                how: "wrapped ring sink: sampled spans x exact events",
            });
            rows.push(Row {
                name: "obs.merge.stall",
                ns_per_item: stall,
                how: "telemetry MergerStallNs",
            });
        }
        if kind == Kind::CampaignResumable {
            rows.push(Row {
                name: "sim.checkpoint.write",
                ns_per_item: write,
                how: "telemetry CheckpointCommitNs",
            });
        }
        rows.push(Row {
            name: "sim.parallel.idle",
            ns_per_item: idle,
            how: "telemetry WorkerIdleNs minus parked time between calls",
        });
        let runner_self = total - probed.closure_per_trial();
        set("faults.variant.ns_per_call", variant);
        set(
            "faults.variant.calls_per_trial",
            probed.count(Count::VariantCalls) / items,
        );
        set(
            "faults.variant.failed_ratio",
            ratio(
                probed.count(Count::VariantFailed),
                probed.count(Count::VariantCalls),
            ),
        );
        set("core.adjudicator.ns_per_vote", adjudicator);
        set(
            "core.adjudicator.rejected_ratio",
            ratio(
                probed.count(Count::VotesRejected),
                probed.count(Count::Votes),
            ),
        );
        set("core.patterns.self_ns_per_run", patterns);
        set("bench.trial.self_ns_per_trial", trial);
        set("sim.campaign.self_ns_per_trial", runner_self);
        set("sim.parallel.speedup", speedup);
        set("sim.parallel.idle_ns_per_trial", idle);
        set(
            "sim.parallel.chunks_per_call",
            probed.telemetry.counter(Counter::ChunksClaimed) as f64 / calls,
        );
        if let Some(base) = &base {
            let base_self = base.total_per_item() - base.closure_per_trial();
            if kind == Kind::CampaignTraced {
                set(
                    "obs.in_trial_ns_per_trial",
                    probed.closure_per_trial() - base.closure_per_trial(),
                );
            }
            if kind == Kind::CampaignResumable {
                set(
                    "sim.checkpoint.record_ns_per_trial",
                    runner_self - base_self - write,
                );
            }
        }
        if kind == Kind::CampaignTraced {
            set(
                "obs.events_per_trial",
                probed.count(Count::SinkEvents) / items,
            );
            set("obs.sink.ns_per_event", c.layer(Layer::Sink).mean_total());
            set("obs.merge.stall_ns_per_trial", stall);
        }
        if kind == Kind::CampaignResumable {
            set("sim.checkpoint.write_ns_per_trial", write);
            let bytes = probed
                .pass
                .last
                .and_then(|(call, _)| instrumented.checkpoint_path(call))
                .and_then(|path| std::fs::metadata(path).ok())
                .map_or(0.0, |meta| meta.len() as f64);
            set(
                "sim.checkpoint.bytes_per_trial",
                bytes / instrumented.items() as f64,
            );
            set(
                "sim.checkpoint.commits_per_call",
                probed.telemetry.counter(Counter::CheckpointCommits) as f64 / calls,
            );
        }
    } else {
        let requests = items;
        let shards = kind.shards().max(1);
        let helpers = jobs.min(shards) - 1;
        let arrival = arrival_ns_per_request(instrumented, checker);
        let provider = probed.collected.layer(Layer::Provider).mean_total()
            * probed.count(Count::Plans)
            / requests;
        let report = probed.pass.report.iter().sum::<f64>() / requests;
        let idle = probed.idle_per_item(helpers);
        rows.push(Row {
            name: "services.arrival",
            ns_per_item: arrival,
            how: "ArrivalProcess::arrival_times timed alone on the same inputs",
        });
        rows.push(Row {
            name: "services.provider",
            ns_per_item: provider,
            how: "wrapped PlannedProvider::plan: sampled spans x exact attempts",
        });
        rows.push(Row {
            name: "services.report",
            ns_per_item: report,
            how: "latency_quantile x3 and goodput_per_sec, timed every call",
        });
        if helpers > 0 {
            rows.push(Row {
                name: "sim.parallel.idle",
                ns_per_item: idle,
                how: "telemetry WorkerIdleNs minus parked time between calls",
            });
        }
        let s = probed.service;
        let plans = probed.count(Count::Plans);
        // The failover policy fires no hedges: its traced run takes the
        // hedging layer from the hedged replay beside it.
        let (hedged, hedged_requests) = match &base {
            Some(base) => (base.service, base.items()),
            None => (s, requests),
        };
        set("services.arrival.ns_per_request", arrival);
        set(
            "services.provider.ns_per_attempt",
            probed.collected.layer(Layer::Provider).mean_total(),
        );
        set("services.provider.attempts_per_request", plans / requests);
        set(
            "services.provider.failed_ratio",
            ratio(probed.count(Count::PlansFailed), plans),
        );
        set(
            "services.runtime.self_ns_per_request",
            total - provider - arrival - report,
        );
        set(
            "services.runtime.allocs_per_request",
            allocs_engine / requests,
        );
        set(
            "services.runtime.hedges_per_request",
            hedged.hedges_fired as f64 / hedged_requests,
        );
        set(
            "services.runtime.hedge_win_ratio",
            ratio(hedged.hedges_won as f64, hedged.hedges_fired as f64),
        );
        set(
            "services.runtime.cancelled_per_request",
            hedged.hedges_cancelled as f64 / hedged_requests,
        );
        set(
            "services.runtime.failovers_per_request",
            s.failovers as f64 / requests,
        );
        set(
            "services.runtime.peak_queue_depth",
            ratio(s.peak_queue_depth as f64, s.calls as f64),
        );
        set(
            "services.runtime.queue_wait_us_p99",
            ratio(s.queue_wait_p99_ns, s.calls as f64) / 1_000.0,
        );
        set(
            "services.breaker.opens_per_1k",
            s.breaker_opens as f64 * 1_000.0 / requests,
        );
        set(
            "services.breaker.skips_per_attempt",
            ratio(s.breaker_skips as f64, plans),
        );
        set("services.breaker.shed_ratio", s.rejected as f64 / requests);
        set("services.report.ns_per_request", report);
        if kind == Kind::SvcFailover {
            set("services.shard.jobs_speedup", speedup);
        }
    }
    let attributed: f64 = rows.iter().map(|r| r.ns_per_item).sum();
    let unattributed = total - attributed;
    rows.push(Row {
        name: "unattributed",
        ns_per_item: unattributed,
        how: if kind.is_campaign() {
            "campaign runner bookkeeping no wrapper or counter covers"
        } else {
            "event loop (queue, timers, breakers, routing, ledger) and shard merge"
        },
    });
    set(
        "call.allocs_per_item",
        (allocs_engine + allocs_report) / items,
    );
    set("call.bytes_per_item", bytes / items);
    set("call.unattributed_ns_per_item", unattributed);
    set("call.trace_overhead", trace_overhead);

    Breakdown {
        rows,
        closure_scale,
        total_ns_per_item: total,
        metrics: m,
        attempted,
        failed,
        parallel_verified: nproc > 1,
        span_cost,
        spans: probed.collected.spans,
        seen: probed.pass.seen,
        last: probed.pass.last,
    }
}

/// Host time of `ArrivalProcess::arrival_times` alone, per request, on
/// the workload's own inputs: the median of three runs per call seed,
/// averaged over the seed set.
fn arrival_ns_per_request(bench: &Bench, checker: &Checker) -> f64 {
    let workload = bench.service_workload();
    let per_seed: Vec<f64> = checker
        .seeds
        .iter()
        .map(|&seed| {
            let runs: Vec<f64> = (0..3)
                .map(|_| {
                    let start = Instant::now();
                    let times = workload.arrival.arrival_times(workload.requests, seed);
                    let ns = start.elapsed().as_nanos() as f64;
                    std::hint::black_box(times);
                    ns
                })
                .collect();
            median(&runs)
        })
        .collect();
    per_seed.iter().sum::<f64>() / per_seed.len() as f64 / workload.requests as f64
}
