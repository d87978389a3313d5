//! Self-tests of the benchmark at short sizes:
//!
//! - the wrappers are transparent: instrumented calls reproduce the
//!   untraced outputs on all five workloads;
//! - every workload's breakdown rows sum to its call total, ending in an
//!   explicit `unattributed` row, and no row is negative (a layer
//!   attributed more time than the call took would show as one);
//! - every metric the benchmark prints is declared in `BENCHMARK.json`,
//!   every declared metric is printed, and one that could not be
//!   measured makes the run not correct;
//! - a corrupted pinned reference makes its calls count as failed.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use std::sync::Mutex;
use std::time::Duration;

use redundancy_perfbench::harness::{timed_pass, traced_run, Checker, Source};
use redundancy_perfbench::metrics::{result_line, END_TO_END, PER_LAYER};
use redundancy_perfbench::probe;
use redundancy_perfbench::refs::{self, Pinned};
use redundancy_perfbench::workload::{reference, seed_set, Bench, Kind, SEED_SET};
use redundancy_perfbench::{bench_dir, work_dir};

/// The recorder and the telemetry gate are process-wide: tests that
/// switch them on take turns.
static SERIAL: Mutex<()> = Mutex::new(());

const JOBS: usize = 2;

/// How far below zero a breakdown row may read, as a share of the total.
const NEGATIVE_SLACK: f64 = 0.02;

/// A call size small enough for unoptimized builds.
fn small(kind: Kind) -> usize {
    match kind {
        Kind::Campaign | Kind::CampaignTraced | Kind::CampaignResumable => 256,
        Kind::SvcHedged => 300,
        Kind::SvcFailover => 600,
    }
}

fn bench(kind: Kind, instrumented: bool) -> Bench {
    Bench::new(kind, JOBS, small(kind), instrumented, &work_dir())
}

#[test]
fn wrappers_are_transparent_on_every_workload() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for kind in Kind::ALL {
        let plain = bench(kind, false);
        let wrapped = bench(kind, true);
        for (call, seed) in seed_set(5).into_iter().take(3).enumerate() {
            let expected = reference(kind, seed, small(kind)).fingerprint();
            let untraced = plain.call(seed, call).0;
            probe::set_enabled(true);
            let traced = wrapped.call(seed, call).0;
            probe::set_enabled(false);
            assert_eq!(untraced.fingerprint(), expected, "{} untraced", kind.name());
            assert_eq!(traced.fingerprint(), expected, "{} traced", kind.name());
            assert!(traced.accounts_for(small(kind)), "{}", kind.name());
        }
        plain.remove_checkpoints();
        wrapped.remove_checkpoints();
    }
    probe::reset();
}

#[test]
fn breakdown_rows_sum_to_the_call_total() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for kind in Kind::ALL {
        let mut plain = bench(kind, false);
        let instrumented = bench(kind, true);
        let checker = Checker::new(kind, 9, small(kind), &Pinned::default());
        let base = kind.baseline().map(|b| bench(b, true));
        let base_checker = kind
            .baseline()
            .map(|b| Checker::new(b, 9, small(b), &Pinned::default()));
        let baseline = base.as_ref().zip(base_checker.as_ref());
        let b = traced_run(&mut plain, &instrumented, baseline, &checker, 0.4, 2);
        assert_eq!(b.failed, 0, "{}: traced outputs must match", kind.name());
        assert!(b.attempted > 0);
        let sum: f64 = b.rows.iter().map(|r| r.ns_per_item).sum();
        assert!(
            (sum - b.total_ns_per_item).abs() <= 1e-9 * b.total_ns_per_item.abs().max(1.0),
            "{}: rows sum to {sum}, total {}",
            kind.name(),
            b.total_ns_per_item
        );
        assert_eq!(b.rows.last().map(|r| r.name), Some("unattributed"));
        assert!(b.total_ns_per_item > 0.0);
        // `unattributed` is the remainder, so the sum alone cannot catch
        // over-attribution; a negative row does. The slack covers timer
        // noise in short unoptimized runs.
        if kind.is_campaign() {
            // The trial-closure rows split the measured closure time
            // (call time less the runner's self time): a layer that
            // counted its children's time again would overshoot it.
            let closure: f64 = b
                .rows
                .iter()
                .filter(|r| CLOSURE_ROWS.contains(&r.name))
                .map(|r| r.ns_per_item)
                .sum();
            let runner = metric(&b.metrics, "sim.campaign.self_ns_per_trial");
            let measured = b.total_ns_per_item - runner;
            assert!(
                (closure - measured).abs() <= 0.01 * measured,
                "{}: closure rows sum to {closure}, closure time {measured}",
                kind.name()
            );
        }
        for row in &b.rows {
            assert!(
                row.ns_per_item >= -NEGATIVE_SLACK * b.total_ns_per_item,
                "{}: row {} is {} of a {} total",
                kind.name(),
                row.name,
                row.ns_per_item,
                b.total_ns_per_item
            );
        }
        let names: Vec<&str> = b.metrics.iter().map(|(n, _)| *n).collect();
        let declared: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, declared, "{}", kind.name());
        plain.remove_checkpoints();
        instrumented.remove_checkpoints();
    }
}

/// The breakdown rows that split a campaign's trial-closure time.
const CLOSURE_ROWS: [&str; 4] = [
    "faults.variant",
    "core.adjudicator",
    "core.patterns",
    "bench.trial",
];

fn metric(metrics: &[(&str, f64)], name: &str) -> f64 {
    metrics
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .1
}

/// The `(name, unit)` pairs listed in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(bench_dir().join("..").join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the root of the checkout");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &text[start..];
    let end = body.find(']').expect("section is a list");
    body[..end]
        .split('{')
        .skip(1)
        .map(|entry| {
            let field = |key: &str| {
                let at = entry.find(&format!("\"{key}\"")).expect("field present");
                let rest = &entry[at + key.len() + 2..];
                let open = rest.find('"').expect("string value") + 1;
                let close = rest[open..].find('"').expect("closed string") + open;
                rest[open..close].to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_printed_metric_is_declared_in_benchmark_json() {
    let pairs = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), pairs(&END_TO_END));
    assert_eq!(declared("per_layer"), pairs(&PER_LAYER));
    // The result line carries exactly the declared names and units.
    let metrics: Vec<(&str, f64)> = END_TO_END.iter().map(|(n, _)| (*n, 1.5)).collect();
    let line = result_line(true, 3, 0, &metrics);
    assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {"));
    for (name, unit) in END_TO_END {
        assert!(line.contains(&format!(
            "\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}"
        )));
    }
    assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
    // A metric that could not be measured is never printed as a number.
    let mut unmeasured = metrics.clone();
    unmeasured[4].1 = f64::NAN;
    let line = result_line(true, 3, 0, &unmeasured);
    assert!(line.starts_with("{\"correct\": false,"), "{line}");
    assert!(line.contains("\"peak_rss_mb\": {\"value\": null, \"unit\": \"MB\"}"));
}

#[test]
fn a_corrupted_pinned_reference_fails_its_calls() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let kind = Kind::SvcHedged;
    let items = small(kind);
    let base = 3;
    let key = refs::key(kind, items);
    let mut pinned = Pinned::default();
    for (index, seed) in seed_set(base).into_iter().enumerate() {
        pinned.set(
            &key,
            base,
            index,
            reference(kind, seed, items).fingerprint(),
        );
    }
    let b = bench(kind, false);
    let budget = Duration::from_millis(300);
    let clean = Checker::new(kind, base, items, &pinned);
    assert_eq!(clean.source, Source::Pinned);
    let pass = timed_pass(&b, &clean, budget, 0, |_| {});
    assert!(
        pass.attempted >= SEED_SET,
        "the pass must cover the seed set"
    );
    assert_eq!(pass.failed, 0);

    let mut corrupted = clean.expected[0].clone();
    let digest = corrupted
        .iter_mut()
        .find(|(k, _)| k == "digest")
        .expect("service fingerprints carry the ledger digest");
    digest.1 = format!("{:016x}", u64::from_str_radix(&digest.1, 16).unwrap() ^ 1);
    pinned.set(&key, base, 0, corrupted);
    let checker = Checker::new(kind, base, items, &pinned);
    let pass = timed_pass(&b, &checker, budget, 0, |_| {});
    let on_seed_zero = pass.attempted.div_ceil(SEED_SET);
    assert_eq!(
        pass.failed, on_seed_zero,
        "exactly the calls on the corrupted seed fail"
    );
}

#[test]
fn pinned_references_parse_and_cover_every_workload() {
    let text = std::fs::read_to_string(bench_dir().join("references.tsv"))
        .expect("references.tsv is committed");
    let pinned = Pinned::parse(&text).expect("references.tsv parses");
    for kind in Kind::ALL {
        for base in refs::PINNED_BASES {
            let key = refs::key(kind, kind.items_per_call());
            assert!(pinned.get(&key, base).is_some(), "{key} seed {base}");
        }
    }
    assert!(Pinned::parse("campaign@items=1\t0\t1\tcorrect=1").is_err());
}
