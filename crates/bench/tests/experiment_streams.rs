//! Pins the traced event streams of the Table 2 and Figure 1
//! experiments, and the recovery-latency table Table 2 derives from its
//! stream.
//!
//! Each case runs an experiment serially (`jobs = 1`) with a collecting
//! observer attached and checks the line count and FNV-1a digest of the
//! collected stream's JSON-lines export against constants. Span ids,
//! parents, `seq`s, clocks, statuses and costs are all in those bytes,
//! so a change to how traced contexts deliver their events cannot move
//! any of them unnoticed.

use std::sync::Arc;

use redundancy_bench::experiments::{fig1_patterns, table2_matrix};
use redundancy_core::obs::{to_jsonl, CollectorObserver, Observer};

/// Trials per cell or pattern row.
const TRIALS: usize = 120;

const SEED: u64 = 0x5eed_2008;

/// Table 2's recovery-latency table for `TRIALS` and `SEED`.
const RECOVERY_LATENCY: &str = "\
Technique (span)      Recoveries  Mean latency (ticks)  p95 (ticks)
-------------------------------------------------------------------
checkpoint-recovery   31          57.4                  300
env-perturbation-rx   39          26.9                  100
n-version             137         10.0                  10
recovery-blocks       73          23.0                  30
retry-block           64          23.1                  30
rule-engine           70          25.0                  30
self-checking         158         10.0                  10
service-substitution  63          22.2                  30
";

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Runs `experiment` with a collector attached and returns the line
/// count and digest of what the collector received, as JSON lines.
fn collected(experiment: impl FnOnce(Arc<dyn Observer>)) -> (usize, u64) {
    let collector = Arc::new(CollectorObserver::new());
    experiment(collector.clone());
    let jsonl = to_jsonl(&collector.take());
    (jsonl.lines().count(), fnv1a(jsonl.as_bytes()))
}

#[test]
fn table2_stream_and_recovery_latency_table_are_pinned() {
    let mut latency = None;
    let stream = collected(|collector| {
        latency = Some(table2_matrix::run(TRIALS, SEED, 1, Some(collector)).1);
    });
    assert_eq!(
        stream,
        (16_288, 0x8572_ee65_aa43_9b0d),
        "Table 2 stream (lines, digest)"
    );
    let latency = latency.expect("the experiment ran").to_string();
    assert_eq!(latency, RECOVERY_LATENCY, "recovery-latency table");
}

#[test]
fn fig1_stream_is_pinned() {
    let stream = collected(|collector| {
        let _ = fig1_patterns::run(TRIALS, SEED, 1, Some(collector));
    });
    assert_eq!(
        stream,
        (2_842, 0xa68f_28c6_a53a_b675),
        "Figure 1 stream (lines, digest)"
    );
}
