//! Experiment T2 — regenerate the paper's **Table 2** and validate its
//! "Faults" column *empirically*.
//!
//! For every technique and every fault class, a standardized scenario
//! measures the rate of **correctly delivered results under fault load**
//! (judged by a golden oracle the techniques themselves never see). The
//! unprotected baseline delivers ≈ 0.70 under our standard faults
//! (density/probability 0.3) and 0.0 under attack, so a cell well above
//! its baseline means the technique *handles* that fault class — which
//! should, and does, agree with the paper's classification. `—` marks
//! class/technique pairs the mechanism does not structurally address.

use std::sync::Arc;

use redundancy_core::adjudicator::acceptance::{AcceptAll, FnAcceptance, OracleTest};
use redundancy_core::context::ExecContext;
use redundancy_core::obs::{MetricsObserver, MetricsRegistry, ObsHandle, Observer};
use redundancy_core::rng::SplitMix64;
use redundancy_core::variant::Variant as _;
use redundancy_core::variant::{pure_variant, BoxedVariant};
use redundancy_faults::correlation::{correlated_versions, CorrelatedSuite};
use redundancy_faults::{Activation, FaultEffect, FaultSpec, FaultyVariant};
use redundancy_sim::parallel_tasks_lpt;
use redundancy_sim::table::Table;
use redundancy_techniques as tech;

use crate::fmt_opt_rate;

/// Standard fault strength used across the matrix.
const DENSITY: f64 = 0.3;

/// Golden function every scenario computes.
fn golden(x: &u64) -> u64 {
    x * 2
}

/// A scenario context, with the experiment's observer attached when one
/// is supplied (so technique spans feed the metrics registry).
fn mk_ctx(seed: u64, obs: Option<&ObsHandle>) -> ExecContext {
    match obs {
        Some(handle) => ExecContext::new(seed).with_obs_handle(handle.clone()),
        None => ExecContext::new(seed),
    }
}

/// Rates of correct delivery per fault class:
/// `[Bohrbug, Heisenbug, Malicious]`.
type Row = [Option<f64>; 3];

fn rate(correct: usize, total: usize) -> Option<f64> {
    Some(correct as f64 / total as f64)
}

/// A faulty single version: silent wrong output on an input region.
fn bohr_version(seed: u64) -> BoxedVariant<u64, u64> {
    FaultyVariant::builder("single", 10, golden)
        .corruptor(|c, _| c + 1001)
        .fault(FaultSpec::bohrbug("bohr", DENSITY, seed))
        .build_boxed()
}

/// A faulty single version: transient crash.
fn heisen_version() -> BoxedVariant<u64, u64> {
    FaultyVariant::builder("single", 10, golden)
        .fault(FaultSpec::heisenbug("heis", DENSITY))
        .build_boxed()
}

/// The unprotected baseline.
fn baseline(trials: usize, seed: u64, obs: Option<&ObsHandle>) -> Row {
    let mut ctx = mk_ctx(seed, obs);
    let bohr = bohr_version(1);
    let bohr_ok = (0..trials as u64)
        .filter(|x| bohr.execute(x, &mut ctx) == Ok(golden(x)))
        .count();
    let heis = heisen_version();
    let heis_ok = (0..trials as u64)
        .filter(|x| heis.execute(x, &mut ctx) == Ok(golden(x)))
        .count();
    // Malicious: every attacked request corrupts the unprotected system.
    [rate(bohr_ok, trials), rate(heis_ok, trials), Some(0.0)]
}

fn nvp(trials: usize, seed: u64, obs: Option<&ObsHandle>) -> Row {
    let mut ctx = mk_ctx(seed, obs);
    // Bohr: three independently developed versions.
    let versions = correlated_versions(
        CorrelatedSuite::new(3, DENSITY, 0.0, seed),
        golden,
        |c, _| c + 1001,
    );
    let nvp = tech::nvp::NVersion::new(versions);
    let bohr_ok = (0..trials as u64)
        .filter(|x| nvp.run(x, &mut ctx).into_output() == Some(golden(x)))
        .count();
    // Heisen: three replicas each transiently crashing.
    let versions: Vec<BoxedVariant<u64, u64>> = (0..3).map(|_| heisen_version()).collect();
    let nvp = tech::nvp::NVersion::new(versions);
    let heis_ok = (0..trials as u64)
        .filter(|x| nvp.run(x, &mut ctx).into_output() == Some(golden(x)))
        .count();
    // Malicious: the attack exploits the common specification — every
    // version produces the same wrong output, the vote ratifies it.
    let mk_attacked = || -> BoxedVariant<u64, u64> {
        FaultyVariant::builder("attacked", 10, golden)
            .attack_detector(|x: &u64| x.is_multiple_of(2))
            .corruptor(|c, _| c + 7777) // same payload effect everywhere
            .fault(FaultSpec::malicious("exploit", 1.0, 42))
            .build_boxed()
    };
    let nvp = tech::nvp::NVersion::new((0..3).map(|_| mk_attacked()).collect());
    let attacked: Vec<u64> = (0..trials as u64 * 2)
        .filter(|x| x % 2 == 0)
        .take(trials)
        .collect();
    let mal_ok = attacked
        .iter()
        .filter(|x| nvp.run(x, &mut ctx).into_output() == Some(golden(x)))
        .count();
    [
        rate(bohr_ok, trials),
        rate(heis_ok, trials),
        rate(mal_ok, trials),
    ]
}

fn recovery_blocks(trials: usize, seed: u64, obs: Option<&ObsHandle>) -> Row {
    let acceptance = || {
        FnAcceptance::new("plausible", |x: &u64, out: &u64| {
            // The corruptor shifts by +1001; a plausibility bound catches it.
            *out <= x * 2 + 100
        })
    };
    let mut ctx = mk_ctx(seed, obs);
    let mut rb = tech::recovery_blocks::RecoveryBlocks::new(acceptance());
    for v in correlated_versions(
        CorrelatedSuite::new(3, DENSITY, 0.0, seed),
        golden,
        |c, _| c + 1001,
    ) {
        rb = rb.with_alternate(v);
    }
    let bohr_ok = (0..trials as u64)
        .filter(|x| rb.run(x, &mut ctx).into_output() == Some(golden(x)))
        .count();
    let mut rb = tech::recovery_blocks::RecoveryBlocks::new(acceptance());
    for _ in 0..3 {
        rb = rb.with_alternate(heisen_version());
    }
    let heis_ok = (0..trials as u64)
        .filter(|x| rb.run(x, &mut ctx).into_output() == Some(golden(x)))
        .count();
    [rate(bohr_ok, trials), rate(heis_ok, trials), None]
}

fn self_checking(trials: usize, seed: u64, obs: Option<&ObsHandle>) -> Row {
    let acceptance = || FnAcceptance::new("plausible", |x: &u64, out: &u64| *out <= x * 2 + 100);
    let mut ctx = mk_ctx(seed, obs);
    let versions = correlated_versions(
        CorrelatedSuite::new(3, DENSITY, 0.0, seed),
        golden,
        |c, _| c + 1001,
    );
    let mut sc = tech::self_checking::SelfChecking::new();
    for v in versions {
        sc = sc.with_tested_component(v, acceptance());
    }
    let bohr_ok = (0..trials as u64)
        .filter(|x| sc.run(x, &mut ctx).into_output() == Some(golden(x)))
        .count();
    let mut sc = tech::self_checking::SelfChecking::new();
    for _ in 0..3 {
        sc = sc.with_tested_component(heisen_version(), acceptance());
    }
    let heis_ok = (0..trials as u64)
        .filter(|x| sc.run(x, &mut ctx).into_output() == Some(golden(x)))
        .count();
    [rate(bohr_ok, trials), rate(heis_ok, trials), None]
}

fn self_optimizing(trials: usize, seed: u64, obs: Option<&ObsHandle>) -> Row {
    // The monitor sees detectable failures (as worst-case latency) and
    // walks away from a failing implementation.
    let mut ctx = mk_ctx(seed, obs);
    let so = tech::self_optimizing::SelfOptimizing::new(50.0)
        .with_implementation(heisen_version())
        .with_implementation(pure_variant("healthy", 20, golden));
    let heis_ok = (0..trials as u64)
        .filter(|x| so.call(x, &mut ctx).result == Ok(golden(x)))
        .count();
    // Silent wrong outputs are invisible to a QoS monitor: no Bohr help.
    [None, rate(heis_ok, trials), None]
}

fn rule_engine(trials: usize, seed: u64, obs: Option<&ObsHandle>) -> Row {
    let mut ctx = mk_ctx(seed, obs);
    // Bohr with *detectable* effect (crash on an input region) — the case
    // exception handling exists for.
    let crashing_bohr: BoxedVariant<u64, u64> = FaultyVariant::builder("primary", 10, golden)
        .fault(FaultSpec::new(
            "crash-region",
            Activation::InputRegion {
                density: DENSITY,
                salt: seed,
            },
            FaultEffect::Crash,
        ))
        .build_boxed();
    let engine =
        tech::rule_engine::RuleEngine::new(crashing_bohr).with_rule(tech::rule_engine::Rule::new(
            "fallback",
            tech::rule_engine::FailureKind::Any,
            pure_variant("handler", 15, golden),
        ));
    let bohr_ok = (0..trials as u64)
        .filter(|x| engine.execute(x, &mut ctx).output() == Some(&golden(x)))
        .count();
    let engine = tech::rule_engine::RuleEngine::new(heisen_version()).with_rule(
        tech::rule_engine::Rule::new(
            "fallback",
            tech::rule_engine::FailureKind::Any,
            pure_variant("handler", 15, golden),
        ),
    );
    let heis_ok = (0..trials as u64)
        .filter(|x| engine.execute(x, &mut ctx).output() == Some(&golden(x)))
        .count();
    [rate(bohr_ok, trials), rate(heis_ok, trials), None]
}

fn wrappers(trials: usize, seed: u64, obs: Option<&ObsHandle>) -> Row {
    let mut ctx = mk_ctx(seed, obs);
    // Bohr: component misbehaves on a known-invalid input precondition
    // (odd inputs, say); the wrapper sanitizes them first.
    let fragile = || -> BoxedVariant<u64, u64> {
        FaultyVariant::builder("fragile", 10, golden)
            .attack_detector(|x: &u64| x % 2 == 1)
            .corruptor(|c, _| c + 1001)
            .fault(FaultSpec::malicious("odd-input-bug", 1.0, 3))
            .build_boxed()
    };
    let wrapper = tech::wrappers::SanitizingWrapper::new(fragile(), |x: &u64| x.is_multiple_of(2))
        .with_sanitizer(|x: &u64| Some(x & !1));
    let bohr_ok = (0..trials as u64)
        .filter(|x| {
            let clean = x & !1;
            wrapper.execute(x, &mut ctx) == Ok(golden(&clean))
        })
        .count();
    // Malicious: heap-smashing writes stopped by the boundary wrapper.
    let mut rng = SplitMix64::new(seed);
    let mut prevented = 0;
    for _ in 0..trials {
        let mut hw = tech::wrappers::HeapWrapper::new(redundancy_sandbox::memory::SimMemory::new(
            0x1000, 0x10000,
        ));
        let a = hw.alloc(64).expect("fits");
        let _b = hw.alloc(64).expect("fits");
        let overflow_len = 65 + rng.range_u64(0, 64);
        let _ = hw.write(a, 0, overflow_len);
        if hw.memory().audit().is_empty() {
            prevented += 1;
        }
    }
    [rate(bohr_ok, trials), None, rate(prevented, trials)]
}

fn robust_data(trials: usize, seed: u64) -> Row {
    // Development faults corrupting structure: single pointer/count hit
    // (Bohr-like deterministic damage) and random transient double hits
    // (Heisen-like): measure full repair.
    let mut rng = SplitMix64::new(seed);
    let mut single_ok = 0;
    let mut burst_ok = 0;
    for _ in 0..trials {
        let n = 4 + rng.index(8);
        let mut list: tech::robust_data::RobustList<u64> = (0..n as u64).collect();
        match rng.index(3) {
            0 => list.corrupt_next(rng.index(n), None),
            1 => list.corrupt_prev(rng.index(n), None),
            _ => list.corrupt_count(rng.index(100)),
        }
        if list.repair() != tech::robust_data::RepairOutcome::Unrepairable {
            single_ok += 1;
        }
        let mut list: tech::robust_data::RobustList<u64> = (0..n as u64).collect();
        // Two independent hits, possibly on both chains.
        list.corrupt_prev(rng.index(n), None);
        list.corrupt_next(rng.index(n), None);
        if list.repair() != tech::robust_data::RepairOutcome::Unrepairable {
            burst_ok += 1;
        }
    }
    [rate(single_ok, trials), rate(burst_ok, trials), None]
}

fn data_diversity(trials: usize, seed: u64, obs: Option<&ObsHandle>) -> Row {
    use tech::data_diversity::{ReExpression, RetryBlock};
    let shift = |k: u64| {
        ReExpression::new(
            format!("shift{k}"),
            move |x: &u64| x.wrapping_add(k),
            move |y: u64| y.wrapping_sub(2 * k),
        )
    };
    let mk_retry = |variant: FaultyVariant<u64, u64>| {
        RetryBlock::new(variant, |x: &u64, out: &u64| *out <= x * 2 + 100)
            .with_reexpression(shift(13))
            .with_reexpression(shift(29))
            .with_reexpression(shift(57))
    };
    let mut ctx = mk_ctx(seed, obs);
    let bohr = FaultyVariant::builder("linear", 10, golden)
        .corruptor(|c, _| c + 1001)
        .fault(FaultSpec::bohrbug("region", DENSITY, seed))
        .build();
    let rb = mk_retry(bohr);
    let bohr_ok = (0..trials as u64)
        .filter(|x| rb.run(x, &mut ctx).into_output() == Some(golden(x)))
        .count();
    let heis = FaultyVariant::builder("linear", 10, golden)
        .fault(FaultSpec::heisenbug("transient", DENSITY))
        .build();
    let rb = mk_retry(heis);
    let heis_ok = (0..trials as u64)
        .filter(|x| rb.run(x, &mut ctx).into_output() == Some(golden(x)))
        .count();
    [rate(bohr_ok, trials), rate(heis_ok, trials), None]
}

fn nvariant_data(trials: usize, seed: u64) -> Row {
    let mut rng = SplitMix64::new(seed);
    let mut detected_or_unharmed = 0;
    for t in 0..trials {
        let mut cell = tech::nvariant_data::NVariantCell::new(3, seed ^ t as u64);
        cell.write(rng.next_u64());
        cell.attack_overwrite(rng.next_u64());
        if cell.read().is_err() {
            detected_or_unharmed += 1;
        }
    }
    [None, None, rate(detected_or_unharmed, trials)]
}

fn rejuvenation(trials: usize, seed: u64, obs: Option<&ObsHandle>) -> Row {
    let variant = FaultyVariant::builder("server", 5, golden)
        .fault(FaultSpec::aging("leak", 0.0, 0.001))
        .build();
    let age = variant.age_handle();
    let r = tech::rejuvenation::Rejuvenator::new(Box::new(variant), age, 50, 10);
    let mut ctx = mk_ctx(seed, obs);
    let heis_ok = (0..trials as u64)
        .filter(|x| r.call(x, &mut ctx).result == Ok(golden(x)))
        .count();
    [None, rate(heis_ok, trials), None]
}

fn env_perturbation(trials: usize, seed: u64, obs: Option<&ObsHandle>) -> Row {
    let mk = |activation: Activation| {
        let v = FaultyVariant::builder("envy", 10, golden)
            .fault(FaultSpec::new("bug", activation, FaultEffect::Crash))
            .build();
        let env = v.env_signature();
        tech::env_perturbation::Rx::new(Box::new(v), env, AcceptAll, 6)
    };
    let mut ctx = mk_ctx(seed, obs);
    // Bohr cell: environment-blind input-region crash — RX cannot help.
    let rx = mk(Activation::InputRegion {
        density: DENSITY,
        salt: seed,
    });
    let bohr_ok = (0..trials as u64)
        .filter(|x| rx.execute(x, &mut ctx).output() == Some(&golden(x)))
        .count();
    // Heisen cell: environment-sensitive failure — RX's home turf.
    let rx = mk(Activation::EnvSensitive {
        density: DENSITY,
        salt: seed,
    });
    let heis_ok = (0..trials as u64)
        .filter(|x| rx.execute(x, &mut ctx).output() == Some(&golden(x)))
        .count();
    [rate(bohr_ok, trials), rate(heis_ok, trials), None]
}

fn process_replicas(trials: usize, seed: u64) -> Row {
    let mut rng = SplitMix64::new(seed);
    let mut stopped = 0;
    for _ in 0..trials {
        let mut replicas = tech::process_replicas::ProcessReplicas::new(2);
        let target = replicas.leaked_address() + rng.range_u64(0, 64);
        let verdict = replicas.execute(&tech::process_replicas::Request::MemoryAttack {
            addr: target,
            len: 4,
        });
        // Stopped = detected divergence, or uniform fail-stop.
        let uniform_failstop = matches!(
            &verdict,
            tech::process_replicas::ReplicaVerdict::Agreed { result: None }
        );
        if verdict.is_attack() || uniform_failstop {
            stopped += 1;
        }
    }
    [None, None, rate(stopped, trials)]
}

fn service_substitution(trials: usize, seed: u64, obs: Option<&ObsHandle>) -> Row {
    use redundancy_services::provider::{ServiceError, SimProvider};
    use redundancy_services::registry::{InterfaceId, ServiceRegistry};
    use redundancy_services::value::Value;
    use std::sync::Arc;

    // Bohr: providers deterministically reject a region of requests —
    // different regions per provider.
    let mut registry = ServiceRegistry::new();
    for i in 0..3u64 {
        let salt = seed ^ (i * 7919);
        registry.register(Arc::new(
            SimProvider::builder(format!("impl{i}"), InterfaceId::new("svc"))
                .operation("double", move |args, _| {
                    let x = args[0].as_int().unwrap_or(0) as u64;
                    let frac = redundancy_faults::spec::hash_fraction(
                        redundancy_faults::spec::mix64(x, salt),
                    );
                    if frac < DENSITY {
                        Err(ServiceError::Fault("regional defect".into()))
                    } else {
                        Ok(Value::Int((x * 2) as i64))
                    }
                })
                .build(),
        ));
    }
    let sub = tech::service_substitution::DynamicSubstitution::new(&registry);
    let mut ctx = mk_ctx(seed, obs);
    let bohr_ok = (0..trials as u64)
        .filter(|x| {
            sub.invoke(
                &InterfaceId::new("svc"),
                "double",
                &[Value::Int(*x as i64)],
                &mut ctx,
            )
            .map(|r| r.value == Value::Int((x * 2) as i64))
            .unwrap_or(false)
        })
        .count();
    // Heisen: transient unavailability.
    let registry = tech::service_substitution::replicated_registry("svc", 3, DENSITY);
    let sub = tech::service_substitution::DynamicSubstitution::new(&registry);
    let heis_ok = (0..trials as u64)
        .filter(|x| {
            sub.invoke(
                &InterfaceId::new("svc"),
                "echo",
                &[Value::Int(*x as i64)],
                &mut ctx,
            )
            .is_ok()
        })
        .count();
    [rate(bohr_ok, trials), rate(heis_ok, trials), None]
}

fn fault_fixing(trials: usize, seed: u64) -> Row {
    // Fix rate over the seeded-bug corpus; `trials` scales repetitions.
    let fixer = tech::fault_fixing::FaultFixer::default();
    let mut rng = SplitMix64::new(seed);
    let repetitions = (trials / 500).clamp(1, 5);
    let mut fixed = 0;
    let mut total = 0;
    for _ in 0..repetitions {
        for program in redundancy_gp::corpus::corpus() {
            let suite = program.suite(50, &mut rng);
            let report = fixer.fix(&program.faulty, program.arity, &suite, &mut rng);
            total += 1;
            if report.fixed {
                fixed += 1;
            }
        }
    }
    [rate(fixed, total), None, None]
}

fn workarounds(trials: usize, seed: u64) -> Row {
    use tech::workarounds::container::{rules, Container, Op};
    use tech::workarounds::{OpSystem as _, WorkaroundEngine};
    let engine = WorkaroundEngine::new(rules());
    let mut rng = SplitMix64::new(seed);
    // Bohr: state-dependent deterministic faults on random scenarios.
    let scenarios: Vec<(Op, usize, Vec<Op>)> = (0..trials)
        .map(|_| {
            let which = rng.index(2);
            if which == 0 {
                (Op::Add, 1, vec![Op::Add, Op::Add])
            } else {
                (Op::Reverse, 2, vec![Op::AddPair, Op::Reverse, Op::Reverse])
            }
        })
        .collect();
    let mut worked = 0;
    let mut applicable = 0;
    for (fault_op, fault_len, seq) in scenarios {
        let mut system = Container::new().with_fault(fault_op, fault_len);
        if system.execute(&seq).is_ok() {
            continue; // fault did not manifest; not a failure scenario
        }
        applicable += 1;
        if engine.find_workaround(&mut system, &seq).is_ok() {
            worked += 1;
        }
    }
    [rate(worked, applicable.max(1)), None, None]
}

fn checkpoint_recovery(trials: usize, seed: u64, obs: Option<&ObsHandle>) -> Row {
    let mut ctx = mk_ctx(seed, obs);
    let bohr = FaultyVariant::builder("hard", 10, golden)
        .corruptor(|c, _| c + 1001)
        .fault(FaultSpec::bohrbug("region", DENSITY, seed))
        .build_boxed();
    let cr = tech::checkpoint_recovery::CheckpointRecovery::new(bohr, OracleTest::new(golden), 8);
    let bohr_ok = (0..trials as u64)
        .filter(|x| cr.execute(x, &mut ctx).output() == Some(&golden(x)))
        .count();
    let cr = tech::checkpoint_recovery::CheckpointRecovery::new(heisen_version(), AcceptAll, 8);
    let heis_ok = (0..trials as u64)
        .filter(|x| cr.execute(x, &mut ctx).output() == Some(&golden(x)))
        .count();
    [rate(bohr_ok, trials), rate(heis_ok, trials), None]
}

fn microreboot(trials: usize, seed: u64) -> Row {
    use tech::microreboot::{ComponentTree, RebootPolicy};
    let mut rng = SplitMix64::new(seed);
    let mut cured = 0;
    for _ in 0..trials {
        let mut tree = ComponentTree::jagr_demo();
        let leaf = format!("{}-c{}", ["web", "app", "db"][rng.index(3)], rng.index(4));
        let deep = usize::from(rng.chance(0.2));
        tree.corrupt(&leaf, deep);
        if tree.recover(&leaf, RebootPolicy::Escalating).cured {
            cured += 1;
        }
    }
    [None, rate(cured, trials), None]
}

/// Builds the empirical Table 2 matrix, with the technique rows computed
/// across up to `jobs` worker threads. Every scenario context carries a
/// [`MetricsObserver`] (fanned out to `extra`, when given — e.g. a ring
/// buffer for `--trace`), and the second table reports per-technique
/// recovery latency: mean `SimClock` ticks of technique runs that
/// *recovered* (accepted with dissent), straight from the
/// `recovery_latency_ticks` histograms.
///
/// Every row seeds its own contexts, so both tables are identical for
/// any `jobs` — the metrics registry aggregates per-span histograms,
/// which are insensitive to the order concurrent rows feed them — but
/// the raw event *stream* an `extra` sink sees interleaves rows in
/// scheduling order when `jobs > 1`; pass `jobs = 1` when capturing a
/// stream for replay.
#[must_use]
pub fn run(
    trials: usize,
    seed: u64,
    jobs: usize,
    extra: Option<Arc<dyn Observer>>,
) -> (Table, Table) {
    let registry = MetricsRegistry::shared();
    let metrics: Arc<dyn Observer> = Arc::new(MetricsObserver::new(Arc::clone(&registry)));
    let observer = match extra {
        Some(sink) => Arc::new(redundancy_core::obs::FanoutObserver::new(vec![
            metrics, sink,
        ])) as Arc<dyn Observer>,
        None => metrics,
    };
    let handle = ObsHandle::new(observer);
    let obs = Some(&handle);
    let matrix = build_matrix(trials, seed, obs, jobs);
    (matrix, recovery_latency_table(&registry))
}

/// Renders the per-technique recovery-latency table from a registry fed
/// by a [`MetricsObserver`].
#[must_use]
pub fn recovery_latency_table(registry: &MetricsRegistry) -> Table {
    let mut table = Table::new(&[
        "Technique (span)",
        "Recoveries",
        "Mean latency (ticks)",
        "p95 (ticks)",
    ]);
    for (key, hist) in registry.histograms() {
        if key.name != "recovery_latency_ticks" {
            continue;
        }
        table.row_owned(vec![
            key.label.clone(),
            hist.count().to_string(),
            format!("{:.1}", hist.mean().unwrap_or(0.0)),
            hist.quantile(0.95).unwrap_or(0).to_string(),
        ]);
    }
    table
}

fn build_matrix(trials: usize, seed: u64, obs: Option<&ObsHandle>, jobs: usize) -> Table {
    let mut table = Table::new(&[
        "Technique",
        "Classification (paper)",
        "Bohrbugs",
        "Heisenbugs",
        "malicious",
    ]);
    // Each row seeds its own contexts/RNGs, so rows are independent work
    // items: run them across the worker pool. Non-capturing closures
    // adapt the rows that take no observer to the common signature.
    //
    // Rows are wildly heterogeneous — fault fixing runs a GP corpus and
    // takes an order of magnitude longer than, say, rejuvenation — so
    // each carries a relative cost hint and the scheduler claims the
    // heaviest rows first (LPT). Hints only shape the claim order; the
    // table rows stay in presentation order regardless of `jobs`.
    type RowFn = fn(usize, u64, Option<&ObsHandle>) -> Row;
    let specs: Vec<(&str, u64, RowFn)> = vec![
        ("(unprotected baseline)", 2, baseline),
        ("N-version programming", 9, nvp),
        ("Recovery blocks", 4, recovery_blocks),
        ("Self-checking programming", 6, self_checking),
        ("Self-optimizing code", 2, self_optimizing),
        ("Exception handling, rule engines", 4, rule_engine),
        ("Wrappers", 6, wrappers),
        ("Robust data structures, audits", 5, |t, s, _| {
            robust_data(t, s)
        }),
        ("Data diversity", 6, data_diversity),
        ("Data diversity for security", 3, |t, s, _| {
            nvariant_data(t, s)
        }),
        ("Rejuvenation", 2, rejuvenation),
        ("Environment perturbation", 8, env_perturbation),
        ("Process replicas", 6, |t, s, _| process_replicas(t, s)),
        ("Dynamic service substitution", 6, service_substitution),
        ("Fault fixing, genetic programming", 100, |t, s, _| {
            fault_fixing(t, s)
        }),
        ("Automatic workarounds", 8, |t, s, _| workarounds(t, s)),
        ("Checkpoint-recovery", 6, checkpoint_recovery),
        ("Reboot and micro-reboot", 10, |t, s, _| microreboot(t, s)),
    ];
    let tasks: Vec<_> = specs
        .iter()
        .map(|&(_, cost, f)| {
            let handle = obs.cloned();
            (cost, move || f(trials, seed, handle.as_ref()))
        })
        .collect();
    let computed = parallel_tasks_lpt(jobs, tasks);
    let rows: Vec<(&str, Row)> = specs
        .iter()
        .map(|&(name, _, _)| name)
        .zip(computed)
        .collect();
    let entries = tech::table2::entries();
    for (name, row) in rows {
        let classification = entries
            .iter()
            .find(|e| e.name == name)
            .map_or_else(|| "—".to_owned(), |e| e.classification.to_string());
        table.row_owned(vec![
            name.to_owned(),
            classification,
            fmt_opt_rate(row[0]),
            fmt_opt_rate(row[1]),
            fmt_opt_rate(row[2]),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: usize = 400;
    const SEED: u64 = 0xbeef;

    fn get(row: Row, i: usize) -> f64 {
        row[i].expect("cell applicable")
    }

    #[test]
    fn baseline_matches_fault_strength() {
        let b = baseline(T, SEED, None);
        assert!((get(b, 0) - 0.7).abs() < 0.08, "bohr {:?}", b[0]);
        assert!((get(b, 1) - 0.7).abs() < 0.08, "heis {:?}", b[1]);
        assert!(get(b, 2).abs() < f64::EPSILON);
    }

    #[test]
    fn code_redundancy_techniques_beat_baseline_on_development_faults() {
        // NVP(3) majority needs two correct versions: P(>=2 correct) at
        // density 0.3 is 0.784 — a real but modest gain over the 0.70
        // baseline. The explicit-adjudicator techniques need only one
        // acceptable alternate: ~1 - 0.3^3 = 0.973.
        let nvp_row = nvp(T, SEED, None);
        assert!(get(nvp_row, 0) > 0.73, "nvp bohr {:?}", nvp_row[0]);
        assert!(get(nvp_row, 1) > 0.73, "nvp heis {:?}", nvp_row[1]);
        for (name, row) in [
            ("recovery-blocks", recovery_blocks(T, SEED, None)),
            ("self-checking", self_checking(T, SEED, None)),
            ("rule-engine", rule_engine(T, SEED, None)),
            ("data-diversity", data_diversity(T, SEED, None)),
        ] {
            assert!(get(row, 0) > 0.85, "{name} bohr {:?}", row[0]);
            assert!(get(row, 1) > 0.85, "{name} heis {:?}", row[1]);
        }
    }

    #[test]
    fn nvp_is_defeated_by_common_mode_attacks() {
        let row = nvp(T, SEED, None);
        assert!(get(row, 2) < 0.05, "malicious {:?}", row[2]);
    }

    #[test]
    fn security_techniques_stop_attacks() {
        assert!(get(nvariant_data(T, SEED), 2) > 0.99);
        assert!(get(process_replicas(T, SEED), 2) > 0.99);
        assert!(get(wrappers(T, SEED, None), 2) > 0.99);
    }

    #[test]
    fn environment_techniques_handle_heisenbugs_not_bohrbugs() {
        let rx = env_perturbation(T, SEED, None);
        assert!(get(rx, 1) > 0.95, "rx heis {:?}", rx[1]);
        assert!(
            get(rx, 0) < 0.8,
            "rx bohr should stay near baseline {:?}",
            rx[0]
        );
        let cr = checkpoint_recovery(T, SEED, None);
        assert!(get(cr, 1) > 0.95, "cr heis {:?}", cr[1]);
        assert!(get(cr, 0) < 0.8, "cr bohr {:?}", cr[0]);
        let rejuv = rejuvenation(T, SEED, None);
        assert!(get(rejuv, 1) > 0.85, "rejuvenation {:?}", rejuv[1]);
    }

    #[test]
    fn opportunistic_code_techniques_fix_bohrbugs() {
        assert!(get(workarounds(T, SEED), 0) > 0.9);
        assert!(get(fault_fixing(600, SEED), 0) > 0.5);
        let sub = service_substitution(T, SEED, None);
        assert!(get(sub, 0) > 0.9, "substitution bohr {:?}", sub[0]);
    }

    #[test]
    fn full_matrix_renders_with_recovery_latency_per_technique() {
        let (matrix, latency) = run(120, SEED, 1, None);
        assert_eq!(matrix.len(), 18);
        let text = matrix.to_string();
        assert!(text.contains("N-version programming"));
        assert!(text.contains("—"));
        // Techniques that mask faults at density 0.3 must have recovered
        // at least once in 120 trials, and a recovery takes ticks.
        let text = latency.to_string();
        for span in ["n-version", "recovery-blocks", "rule-engine"] {
            assert!(text.contains(span), "missing {span} in:\n{text}");
        }
        assert!(latency.len() >= 3);
    }

    #[test]
    fn matrix_is_identical_for_any_job_count() {
        crate::assert_jobs_invariant!(|jobs| {
            let (matrix, latency) = run(60, SEED, jobs, None);
            format!("{matrix}{latency}")
        });
    }

    #[test]
    fn traced_run_fans_out_to_extra_observer() {
        let ring = redundancy_core::obs::RingBufferObserver::shared(1 << 16);
        let _ = run(40, SEED, 1, Some(ring.clone() as Arc<dyn Observer>));
        assert!(!ring.is_empty(), "extra sink saw no events");
    }
}
