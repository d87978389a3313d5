//! Pins the traced event stream of every technique entry point that
//! opens its own `Technique` span.
//!
//! Each case runs one technique over a fixed input range on a single
//! seeded, traced context and checks two things against constants:
//! the per-input outcomes, and the length and FNV-1a digest of the
//! trace's JSON-lines export. The span structure, span statuses, cost
//! deltas, points and their order are all in those bytes, so a refactor
//! of how a technique opens, closes or charges its span cannot drift
//! unnoticed.

use std::sync::Arc;

use redundancy_core::adjudicator::acceptance::{AcceptAll, FnAcceptance, OracleTest};
use redundancy_core::context::ExecContext;
use redundancy_core::obs::{to_jsonl, RingBufferObserver};
use redundancy_core::outcome::{VariantFailure, Verdict};
use redundancy_core::patterns::DecisionPolicy;
use redundancy_core::variant::{pure_variant, BoxedVariant, FnVariant};
use redundancy_faults::{Activation, EnvSignature, FaultEffect, FaultSpec, FaultyVariant};
use redundancy_services::provider::SimProvider;
use redundancy_services::registry::{Converter, InterfaceId, ServiceRegistry};
use redundancy_services::value::Value;
use redundancy_techniques::checkpoint_recovery::{CheckpointRecovery, RecoveryOutcome};
use redundancy_techniques::data_diversity::{NCopy, ReExpression, RetryBlock};
use redundancy_techniques::env_perturbation::{Rx, RxOutcome};
use redundancy_techniques::nvp::NVersion;
use redundancy_techniques::recovery_blocks::RecoveryBlocks;
use redundancy_techniques::rule_engine::{FailureKind, Handled, Rule, RuleEngine};
use redundancy_techniques::self_checking::SelfChecking;
use redundancy_techniques::self_optimizing::SelfOptimizing;
use redundancy_techniques::service_substitution::DynamicSubstitution;

/// Inputs every case runs over, in order, on one context.
const INPUTS: std::ops::Range<i64> = 0..12;

/// Explicit adjudicator of the accept-all checkpoint-recovery case and
/// of RX: only detectable failures (crash, error, timeout, omission)
/// are failures.
fn checkpoint_accept_all(variant: BoxedVariant<i64, i64>) -> CheckpointRecovery<i64, i64> {
    CheckpointRecovery::new(variant, AcceptAll, 4)
}

/// Explicit adjudicator of the oracle checkpoint-recovery case: any
/// output that differs from `golden` is a failure too.
fn checkpoint_oracle(variant: BoxedVariant<i64, i64>) -> CheckpointRecovery<i64, i64> {
    CheckpointRecovery::new(variant, OracleTest::new(golden), 3)
}

fn rx(variant: BoxedVariant<i64, i64>, env: EnvSignature) -> Rx<i64, i64> {
    Rx::new(variant, env, AcceptAll, 4)
}

fn golden(x: &i64) -> i64 {
    2 * x + 6
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Runs `call` once per input on one context traced into a ring and
/// returns the space-joined outcome labels and the JSON-lines trace.
fn traced(seed: u64, mut call: impl FnMut(&i64, &mut ExecContext) -> String) -> (String, String) {
    let ring = RingBufferObserver::shared(1 << 16);
    let mut ctx = ExecContext::new(seed).with_observer(ring.clone());
    let outcomes: Vec<String> = INPUTS.map(|x| call(&x, &mut ctx)).collect();
    assert_eq!(ring.dropped(), 0, "the ring must hold the whole trace");
    (outcomes.join(" "), to_jsonl(&ring.events()))
}

/// Asserts a case against its pinned outcomes, line count and digest.
fn assert_pinned(run: (String, String), outcomes: &str, lines: usize, digest: u64) {
    let (got, jsonl) = run;
    let got_lines = jsonl.lines().count();
    let got_digest = fnv1a(jsonl.as_bytes());
    assert_eq!(got, outcomes, "outcomes drifted");
    assert_eq!(
        (got_lines, got_digest),
        (lines, digest),
        "trace drifted: {got_lines} lines, digest {got_digest:#018x}"
    );
}

fn verdict_label(verdict: &Verdict<i64>) -> String {
    match verdict {
        Verdict::Accepted {
            output,
            support,
            dissent,
        } => format!("{output}/{support}-{dissent}"),
        Verdict::Rejected { reason } => format!("rejected:{}", reason.kind()),
    }
}

fn failure_label(failure: &VariantFailure) -> String {
    format!("failed:{}", failure.kind())
}

/// The golden computation with a silent Bohrbug on `density` of inputs.
fn bohr(name: &str, density: f64, salt: u64, shift: i64) -> BoxedVariant<i64, i64> {
    FaultyVariant::builder(name, 10, golden)
        .corruptor(move |c, _| c + shift)
        .fault(FaultSpec::bohrbug("logic", density, salt))
        .build_boxed()
}

/// The golden computation crashing with probability `p` per execution.
fn heisen(name: &str, p: f64) -> BoxedVariant<i64, i64> {
    FaultyVariant::builder(name, 10, golden)
        .fault(FaultSpec::heisenbug("transient", p))
        .build_boxed()
}

fn shift(k: i64) -> ReExpression<i64, i64> {
    ReExpression::new(
        format!("shift{k}"),
        move |x: &i64| x + k,
        move |y: i64| y - 2 * k,
    )
}

fn oracle() -> OracleTest<fn(&i64) -> i64> {
    OracleTest::new(golden)
}

#[test]
fn n_version_stream_is_pinned() {
    let nvp = NVersion::new(vec![
        bohr("v0", 0.3, 1, 1001),
        bohr("v1", 0.3, 2, 2002),
        heisen("v2", 0.3),
    ])
    .with_policy(DecisionPolicy::Eager);
    let run = traced(11, |x, ctx| verdict_label(&nvp.run(x, ctx).verdict));
    assert_pinned(run, "rejected:no_quorum rejected:no_quorum rejected:no_quorum rejected:no_quorum rejected:no_quorum 16/2-0 18/2-0 20/2-0 rejected:no_quorum 24/2-1 26/2-0 28/2-0", 144, 0x11a0_6377_2f22_1756);
}

#[test]
fn recovery_blocks_stream_is_pinned() {
    let rb = RecoveryBlocks::new(oracle())
        .with_alternate(bohr("primary", 0.5, 3, 7))
        .with_alternate(heisen("alternate", 0.5))
        .with_alternate(pure_variant("last-resort", 30, golden));
    let run = traced(12, |x, ctx| verdict_label(&rb.run(x, ctx).verdict));
    assert_pinned(
        run,
        "6/1-2 8/1-0 10/1-1 12/1-0 14/1-0 16/1-0 18/1-1 20/1-1 22/1-1 24/1-0 26/1-1 28/1-1",
        100,
        0xaac6_b7b4_3f3e_008d,
    );
}

#[test]
fn self_checking_stream_is_pinned() {
    let sc = SelfChecking::new()
        .with_tested_component(bohr("acting", 0.4, 4, 5), oracle())
        .with_compared_pair("pair", heisen("left", 0.3), bohr("right", 0.3, 5, 9))
        .with_tested_component(
            heisen("spare", 0.2),
            FnAcceptance::new("even", |_: &i64, out: &i64| out % 2 == 0),
        );
    let run = traced(13, |x, ctx| verdict_label(&sc.run(x, ctx).verdict));
    assert_pinned(
        run,
        "6/2-1 8/2-1 10/2-1 12/2-1 14/2-1 16/2-1 18/3-0 20/1-2 22/2-1 24/2-1 26/2-1 28/3-0",
        132,
        0x5b58_a496_eed1_a78b,
    );
}

#[test]
fn n_copy_stream_is_pinned() {
    let program = FaultyVariant::builder("linear", 10, golden)
        .corruptor(|c, _| c + 1000)
        .fault(FaultSpec::bohrbug("input-bug", 0.3, 99))
        .build();
    let nc = NCopy::new(program)
        .with_reexpression(shift(1))
        .with_reexpression(shift(2));
    let run = traced(14, |x, ctx| verdict_label(&nc.run(x, ctx)));
    assert_pinned(
        run,
        "6/2-1 8/3-0 10/3-0 12/2-1 14/2-1 1016/2-1 18/2-1 1020/2-1 1022/2-1 1024/2-1 26/2-1 28/3-0",
        132,
        0x73e2_f4ca_4f30_f4d2,
    );
}

#[test]
fn retry_block_stream_is_pinned() {
    let program = FaultyVariant::builder("linear", 10, golden)
        .corruptor(|c, _| c + 1000)
        .fault(FaultSpec::bohrbug("input-bug", 0.4, 98))
        .build();
    let rb = RetryBlock::new(program, |x: &i64, out: &i64| *out == golden(x))
        .with_reexpression(shift(1))
        .with_reexpression(shift(3));
    let run = traced(15, |x, ctx| verdict_label(&rb.run(x, ctx)));
    assert_pinned(run, "6/1-0 8/1-0 10/1-1 12/1-0 14/1-0 16/1-2 18/1-2 20/1-1 22/1-0 24/1-0 26/1-2 rejected:acceptance_failed", 90, 0xf3b5_2b5b_3815_4d6d);
}

fn recovery_label(outcome: &RecoveryOutcome<i64>) -> String {
    match outcome {
        RecoveryOutcome::Clean(o) => format!("{o}"),
        RecoveryOutcome::Recovered { output, rollbacks } => format!("{output}/r{rollbacks}"),
        RecoveryOutcome::Failed(f) => failure_label(f),
    }
}

#[test]
fn checkpoint_recovery_accept_all_stream_is_pinned() {
    let cr = checkpoint_accept_all(heisen("flaky", 0.6));
    let run = traced(16, |x, ctx| recovery_label(&cr.execute(x, ctx)));
    assert_pinned(
        run,
        "6 8/r3 10 12 14/r2 failed:crash 18/r1 20 22 24 26 28/r1",
        94,
        0xf325_daeb_6a41_a9fd,
    );
}

#[test]
fn checkpoint_recovery_oracle_stream_is_pinned() {
    let variant = FaultyVariant::builder("mixed", 10, golden)
        .corruptor(|c, _| c + 1)
        .fault(FaultSpec::bohrbug("logic", 0.3, 5))
        .fault(FaultSpec::heisenbug("transient", 0.3))
        .build_boxed();
    let cr = checkpoint_oracle(variant).with_rollback_cost(50);
    let run = traced(17, |x, ctx| recovery_label(&cr.execute(x, ctx)));
    assert_pinned(run, "failed:error failed:error failed:error failed:error 14 16/r1 18 failed:error 22/r1 failed:error 26 28", 126, 0x84d4_0b86_45ec_4a4a);
}

#[test]
fn rx_stream_is_pinned() {
    let variant = FaultyVariant::builder("env-bug", 5, golden)
        .fault(FaultSpec::new(
            "overflow-ish",
            Activation::EnvSensitive {
                density: 0.6,
                salt: 7,
            },
            FaultEffect::Crash,
        ))
        .build();
    let env = variant.env_signature();
    let rx = rx(Box::new(variant), env);
    let run = traced(18, |x, ctx| match rx.execute(x, ctx) {
        RxOutcome::CleanRun(o) => format!("{o}"),
        RxOutcome::Recovered { output, rounds, .. } => format!("{output}/r{rounds}"),
        RxOutcome::Failed(f) => failure_label(&f),
    });
    assert_pinned(
        run,
        "6/r2 8/r1 10 12/r2 14 16/r2 18 20 22 24 26 28/r3",
        78,
        0x2701_addc_eacf_9eac,
    );
}

#[test]
fn rule_engine_stream_is_pinned() {
    let primary = FaultyVariant::builder("primary", 10, golden)
        .fault(FaultSpec::heisenbug("crashy", 0.4))
        .fault(FaultSpec::new(
            "slow",
            Activation::Probabilistic { p: 0.3 },
            FaultEffect::Hang,
        ))
        .build_boxed();
    let timeout_action: BoxedVariant<i64, i64> =
        Box::new(FnVariant::new("give-up", |_: &i64, _: &mut ExecContext| {
            Err(VariantFailure::Omission)
        }));
    let engine = RuleEngine::new(primary)
        .with_rule(Rule::new(
            "on-timeout",
            FailureKind::Timeout,
            timeout_action,
        ))
        .with_rule(Rule::new(
            "on-crash",
            FailureKind::Crash,
            heisen("restart", 0.5),
        ));
    let run = traced(19, |x, ctx| match engine.execute(x, ctx) {
        Handled::Primary(o) => format!("{o}"),
        Handled::Recovered { output, rule } => format!("{output}/{rule}"),
        Handled::Unhandled(f) => failure_label(&f),
    });
    assert_pinned(
        run,
        "failed:crash 8/on-crash 10 12 14 16 18 failed:omission 22 failed:crash failed:omission 28",
        59,
        0x6466_e679_dcbf_2ac1,
    );
}

#[test]
fn self_optimizing_stream_is_pinned() {
    let so = SelfOptimizing::new(40.0)
        .with_implementation(pure_variant("slow", 60, golden))
        .with_implementation(heisen("fast", 0.3))
        .with_implementation(pure_variant("steady", 30, golden));
    let run = traced(20, |x, ctx| match so.call(x, ctx).result {
        Ok(o) => format!("{o}@{}", so.active()),
        Err(f) => format!("{}@{}", failure_label(&f), so.active()),
    });
    assert_pinned(
        run,
        "6@1 8@1 failed:crash@1 12@1 failed:crash@2 16@2 18@2 20@2 22@2 24@2 26@2 28@2",
        50,
        0xe546_31b3_dbde_0bdf,
    );
}

#[test]
fn dynamic_substitution_stream_is_pinned() {
    let mut registry = ServiceRegistry::new();
    for (id, fail) in [("p0", 0.5), ("p1", 0.5)] {
        registry.register(Arc::new(
            SimProvider::builder(id, InterfaceId::new("svc"))
                .fail_prob(fail)
                .operation("op", |args, _| Ok(args[0].clone()))
                .build(),
        ));
    }
    registry.register(Arc::new(
        SimProvider::builder("alt", InterfaceId::new("alt-svc"))
            .fail_prob(0.5)
            .operation("alt-op", |args, _| Ok(args[0].clone()))
            .build(),
    ));
    registry.register_converter(
        Converter::new(InterfaceId::new("svc"), InterfaceId::new("alt-svc"))
            .map_operation("op", "alt-op"),
    );
    let sub = DynamicSubstitution::new(&registry);
    let svc = InterfaceId::new("svc");
    let run = traced(21, |x, ctx| {
        match sub.invoke(&svc, "op", &[Value::Int(*x)], ctx) {
            Ok(report) => format!(
                "{}/{}{}",
                report.served_by,
                report.substitutions,
                if report.converted { "c" } else { "" }
            ),
            Err(err) => format!("failed:{err}"),
        }
    });
    assert_pinned(
        run,
        "p1/1 p0/0 p1/1 p1/1 p0/0 p0/0 alt/2c p0/0 failed:service unavailable alt/2c p0/0 alt/2c",
        35,
        0x42f7_86d3_c48e_f428,
    );
}
