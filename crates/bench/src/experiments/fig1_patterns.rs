//! Experiment F1 — the paper's **Figure 1**: compare the three
//! inter-component architectural patterns on identical variant sets.
//!
//! Expected shape: parallel evaluation masks silent wrong outputs (the
//! others need a detectable failure or an acceptance test); sequential
//! alternatives is cheapest in work (it stops at the first success);
//! the parallel patterns win on latency under failures (critical path vs
//! sum of attempts).

use std::sync::Arc;

use redundancy_core::adjudicator::acceptance::FnAcceptance;
use redundancy_core::adjudicator::voting::MajorityVoter;
use redundancy_core::context::ExecContext;
use redundancy_core::obs::{ObsHandle, Observer};
use redundancy_core::patterns::{ParallelEvaluation, ParallelSelection, SequentialAlternatives};
use redundancy_core::variant::BoxedVariant;
use redundancy_faults::correlation::{correlated_versions, CorrelatedSuite};
use redundancy_sim::parallel_tasks;
use redundancy_sim::table::Table;

use crate::fmt_rate;

/// Measured behaviour of one pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PatternStats {
    /// Fraction of trials delivering the correct output.
    pub reliability: f64,
    /// Mean work units per request.
    pub mean_work: f64,
    /// Mean virtual latency per request.
    pub mean_latency: f64,
}

fn versions(seed: u64) -> Vec<BoxedVariant<u64, u64>> {
    correlated_versions(
        CorrelatedSuite::new(3, 0.25, 0.0, seed),
        |x: &u64| x * 2,
        |c, _| c + 1001,
    )
}

fn acceptance() -> FnAcceptance<impl Fn(&u64, &u64) -> bool> {
    // Explicit adjudicator with perfect coverage of the +1001 corruption.
    FnAcceptance::new("plausible", |x: &u64, out: &u64| *out <= x * 2 + 100)
}

/// Measures one pattern given a closure running a single request.
fn measure<F>(trials: usize, seed: u64, obs: Option<&ObsHandle>, mut run_one: F) -> PatternStats
where
    F: FnMut(&u64, &mut ExecContext) -> Option<u64>,
{
    let mut ctx = match obs {
        Some(handle) => ExecContext::new(seed).with_obs_handle(handle.clone()),
        None => ExecContext::new(seed),
    };
    let mut correct = 0;
    let mut work = 0u64;
    let mut latency = 0u64;
    for x in 0..trials as u64 {
        let before = ctx.cost();
        if run_one(&x, &mut ctx) == Some(x * 2) {
            correct += 1;
        }
        let after = ctx.cost();
        work += after.work_units - before.work_units;
        latency += after.virtual_ns - before.virtual_ns;
    }
    PatternStats {
        reliability: correct as f64 / trials as f64,
        mean_work: work as f64 / trials as f64,
        mean_latency: latency as f64 / trials as f64,
    }
}

/// Measures parallel evaluation (Figure 1a).
#[must_use]
pub fn parallel_evaluation(trials: usize, seed: u64, obs: Option<&ObsHandle>) -> PatternStats {
    let mut pattern = ParallelEvaluation::new(MajorityVoter::new());
    for v in versions(seed) {
        pattern.push_variant(v);
    }
    measure(trials, seed, obs, |x, ctx| {
        pattern.run(x, ctx).into_output()
    })
}

/// Measures parallel selection (Figure 1b).
#[must_use]
pub fn parallel_selection(trials: usize, seed: u64, obs: Option<&ObsHandle>) -> PatternStats {
    let mut pattern = ParallelSelection::new();
    for v in versions(seed) {
        pattern.push_component(v, Box::new(acceptance()));
    }
    measure(trials, seed, obs, |x, ctx| {
        pattern.run(x, ctx).into_output()
    })
}

/// Measures sequential alternatives (Figure 1c).
#[must_use]
pub fn sequential_alternatives(trials: usize, seed: u64, obs: Option<&ObsHandle>) -> PatternStats {
    let mut pattern = SequentialAlternatives::new(acceptance());
    for v in versions(seed) {
        pattern.push_variant(v);
    }
    measure(trials, seed, obs, |x, ctx| {
        pattern.run(x, ctx).into_output()
    })
}

/// Builds the Figure 1 comparison table, with the three pattern rows
/// measured across up to `jobs` worker threads and every request
/// recorded to `observer` when one is given (what `exp_fig1 --trace`
/// uses). Each row seeds its own context, so the table is identical for
/// any `jobs`; but with `jobs > 1` an observer's event stream
/// interleaves rows in scheduling order, so pass `jobs = 1` when
/// capturing a stream for replay.
#[must_use]
pub fn run(trials: usize, seed: u64, jobs: usize, observer: Option<Arc<dyn Observer>>) -> Table {
    let handle = observer.map(ObsHandle::new);
    let mut table = Table::new(&[
        "Pattern (Figure 1)",
        "Adjudicator",
        "reliability",
        "mean work",
        "mean latency",
    ]);
    type PatternFn = fn(usize, u64, Option<&ObsHandle>) -> PatternStats;
    let specs: [(&str, &str, PatternFn); 3] = [
        (
            "(a) parallel evaluation",
            "implicit majority vote",
            parallel_evaluation,
        ),
        (
            "(b) parallel selection",
            "explicit per-component test",
            parallel_selection,
        ),
        (
            "(c) sequential alternatives",
            "explicit shared test",
            sequential_alternatives,
        ),
    ];
    let tasks: Vec<_> = specs
        .iter()
        .map(|&(_, _, f)| {
            let handle = handle.clone();
            move || f(trials, seed, handle.as_ref())
        })
        .collect();
    let computed = parallel_tasks(jobs, tasks);
    for (&(name, adjudicator, _), stats) in specs.iter().zip(computed) {
        table.row_owned(vec![
            name.to_owned(),
            adjudicator.to_owned(),
            fmt_rate(stats.reliability),
            format!("{:.1}", stats.mean_work),
            format!("{:.1}", stats.mean_latency),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: usize = 800;
    const SEED: u64 = 0xf16;

    #[test]
    fn all_patterns_mask_most_failures() {
        // Majority voting needs >= 2 correct versions: P = 0.844 at
        // density 0.25. The selection/sequential patterns need just one
        // acceptable result: P = 1 - 0.25^3 = 0.984.
        let eval = parallel_evaluation(T, SEED, None);
        assert!((eval.reliability - 0.844).abs() < 0.04, "eval: {eval:?}");
        for (name, s) in [
            ("select", parallel_selection(T, SEED, None)),
            ("seq", sequential_alternatives(T, SEED, None)),
        ] {
            assert!(s.reliability > 0.95, "{name}: {s:?}");
        }
    }

    #[test]
    fn sequential_is_cheapest_in_work() {
        let eval = parallel_evaluation(T, SEED, None);
        let seq = sequential_alternatives(T, SEED, None);
        assert!(
            seq.mean_work < eval.mean_work * 0.7,
            "seq {seq:?} vs eval {eval:?}"
        );
    }

    #[test]
    fn parallel_latency_beats_sequential_under_failures() {
        let select = parallel_selection(T, SEED, None);
        let seq = sequential_alternatives(T, SEED, None);
        // Sequential pays attempt sums on failing primaries; parallel pays
        // the (constant) critical path. With a 25%-faulty primary the mean
        // sequential latency must exceed the parallel one is not guaranteed
        // in every configuration, but parallel latency must at least not
        // exceed the all-variants critical path bound.
        assert!(select.mean_latency <= 13.0, "select {select:?}");
        assert!(seq.mean_latency >= 10.0, "seq {seq:?}");
    }

    #[test]
    fn table_renders_three_rows() {
        let table = run(100, SEED, 1, None);
        assert_eq!(table.len(), 3);
        assert!(table.to_string().contains("parallel evaluation"));
    }

    #[test]
    fn table_is_identical_for_any_job_count() {
        crate::assert_jobs_invariant!(|jobs| run(100, SEED, jobs, None));
    }
}
