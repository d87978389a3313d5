//! Flight-recorder smoke check (`make monitor-smoke`).
//!
//! Runs one campaign twice — bare, then under a fast-sampling
//! [`CampaignMonitor`] exporting Prometheus text and JSONL snapshots to
//! temporary files — and verifies the recorder's whole contract: the
//! monitored summary is bit-identical to the bare one, the Prometheus
//! output passes the exposition-format validator and names the expected
//! metric families, and every JSONL line is well-formed.

use std::time::Duration;

use redundancy_core::cost::Cost;
use redundancy_core::obs::{prometheus, validate_json};
use redundancy_sim::{Campaign, CampaignMonitor, MonitorConfig, TrialOutcome, TrialSummary};

const TRIALS: usize = 4_000;
const SEED: u64 = 0x5eed_2008;

/// A deterministic trial slow enough (~20µs of integer spin) that the
/// campaign spans several 10 ms sampling intervals.
fn spin_trial(seed: u64, _i: usize) -> TrialOutcome {
    let mut acc = seed | 1;
    for _ in 0..4_000 {
        acc = acc
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
    }
    let cost = Cost::of_invocation(1, acc % 7);
    match acc % 10 {
        0 => TrialOutcome::Undetected { cost },
        1 | 2 => TrialOutcome::Detected { cost },
        _ => TrialOutcome::Correct { cost },
    }
}

fn run_campaign(jobs: usize) -> TrialSummary {
    Campaign::new(TRIALS).run_parallel(SEED, jobs, spin_trial)
}

fn main() {
    redundancy_bench::warn_unknown_knobs();
    let jobs = redundancy_bench::jobs_arg();
    println!("monitor smoke — flight recorder on a {TRIALS}-trial campaign ({jobs} jobs)");

    let baseline = run_campaign(jobs);

    let stamp = std::process::id();
    let prom_path = std::env::temp_dir().join(format!("redundancy-monitor-{stamp}.prom"));
    let jsonl_path = std::env::temp_dir().join(format!("redundancy-monitor-{stamp}.jsonl"));
    let monitor = CampaignMonitor::start(MonitorConfig {
        interval: Duration::from_millis(10),
        live: false,
        prometheus_path: Some(prom_path.clone()),
        jsonl_path: Some(jsonl_path.clone()),
    });
    let monitored = run_campaign(jobs);
    monitor.stop();

    assert_eq!(
        monitored, baseline,
        "monitoring must never change campaign results"
    );
    println!("summary bit-identical with monitor on: OK");

    let prom = std::fs::read_to_string(&prom_path).expect("prometheus export written");
    let families = match prometheus::validate(&prom) {
        Ok(families) => families,
        Err(err) => panic!("prometheus export failed validation: {err}"),
    };
    for name in [
        "redundancy_trials_scheduled_total",
        "redundancy_trials_correct_total",
        "redundancy_chunks_claimed_total",
        "redundancy_worker_busy_ns_total",
        "redundancy_trial_ns_bucket",
        "redundancy_chunk_claim_ns_count",
    ] {
        assert!(
            prom.contains(name),
            "prometheus export missing expected metric {name}"
        );
    }
    println!("prometheus export valid: {families} metric families");

    let jsonl = std::fs::read_to_string(&jsonl_path).expect("jsonl export written");
    let snapshots = jsonl.lines().count();
    assert!(snapshots >= 1, "monitor recorded no JSONL snapshots");
    for (i, line) in jsonl.lines().enumerate() {
        if let Err(err) = validate_json(line) {
            panic!("malformed JSONL snapshot on line {}: {err}", i + 1);
        }
        assert!(
            line.contains("\"trials_per_sec\"") && line.contains("\"counters\""),
            "JSONL snapshot missing expected fields: {line}"
        );
    }
    println!("jsonl export valid: {snapshots} snapshot(s)");

    let _ = std::fs::remove_file(&prom_path);
    let _ = std::fs::remove_file(&jsonl_path);
    println!("\nmonitor smoke: PASS — identical results, parseable Prometheus and JSONL export");
}
