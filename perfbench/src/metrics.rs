//! The metric names the benchmark prints, with their units, and the
//! result line it ends with. `BENCHMARK.json` lists the same names; a
//! self-test keeps the two in step.

use std::fmt::Write as _;

/// End-to-end metrics (`--trace 0`).
pub const END_TO_END: [(&str, &str); 5] = [
    ("items_per_s", "1/s"),
    ("call_ms_p50", "ms"),
    ("call_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`).
pub const PER_LAYER: [(&str, &str); 40] = [
    ("faults.variant.ns_per_call", "ns"),
    ("faults.variant.calls_per_trial", "count"),
    ("faults.variant.failed_ratio", "ratio"),
    ("core.adjudicator.ns_per_vote", "ns"),
    ("core.adjudicator.rejected_ratio", "ratio"),
    ("core.patterns.self_ns_per_run", "ns"),
    ("bench.trial.self_ns_per_trial", "ns"),
    ("sim.campaign.self_ns_per_trial", "ns"),
    ("sim.parallel.speedup", "x"),
    ("sim.parallel.idle_ns_per_trial", "ns"),
    ("sim.parallel.chunks_per_call", "count"),
    ("obs.in_trial_ns_per_trial", "ns"),
    ("obs.events_per_trial", "count"),
    ("obs.sink.ns_per_event", "ns"),
    ("obs.merge.stall_ns_per_trial", "ns"),
    ("sim.checkpoint.record_ns_per_trial", "ns"),
    ("sim.checkpoint.write_ns_per_trial", "ns"),
    ("sim.checkpoint.bytes_per_trial", "B"),
    ("sim.checkpoint.commits_per_call", "count"),
    ("services.arrival.ns_per_request", "ns"),
    ("services.provider.ns_per_attempt", "ns"),
    ("services.provider.attempts_per_request", "count"),
    ("services.provider.failed_ratio", "ratio"),
    ("services.runtime.self_ns_per_request", "ns"),
    ("services.runtime.allocs_per_request", "count"),
    ("services.runtime.hedges_per_request", "count"),
    ("services.runtime.hedge_win_ratio", "ratio"),
    ("services.runtime.cancelled_per_request", "count"),
    ("services.runtime.failovers_per_request", "count"),
    ("services.runtime.peak_queue_depth", "count"),
    ("services.runtime.queue_wait_us_p99", "us"),
    ("services.breaker.opens_per_1k", "count"),
    ("services.breaker.skips_per_attempt", "ratio"),
    ("services.breaker.shed_ratio", "ratio"),
    ("services.shard.jobs_speedup", "x"),
    ("services.report.ns_per_request", "ns"),
    ("call.allocs_per_item", "count"),
    ("call.bytes_per_item", "B"),
    ("call.unattributed_ns_per_item", "ns"),
    ("call.trace_overhead", "x"),
];

/// The unit `name` is reported in.
///
/// # Panics
///
/// Panics for a name in neither list — every printed metric must be one.
#[must_use]
pub fn unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
        .unwrap_or_else(|| panic!("metric {name:?} is not declared"))
}

/// Renders the final result line: exactly `correct`, `attempted`,
/// `failed` and `metrics`, each metric with its value and unit. A metric
/// that could not be measured (not finite) prints as `null` and makes
/// the run not correct, so it can never read as a perfect value.
#[must_use]
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, f64)],
) -> String {
    let mut body = String::new();
    for (i, (name, value)) in metrics.iter().enumerate() {
        let value = if value.is_finite() {
            format!("{value:?}")
        } else {
            "null".to_owned()
        };
        let _ = write!(
            body,
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            unit(name)
        );
    }
    let correct = correct && metrics.iter().all(|(_, value)| value.is_finite());
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}
