//! Experiment E6 — the §4.1 "Costs and efficacy of code redundancy"
//! trade-off: N-version programming vs recovery blocks vs self-checking
//! programming on one axis of reliability, and design/execution cost on
//! the other; plus the acceptance-test-coverage sweep that bounds the
//! explicit-adjudicator techniques.
//!
//! Expected shape: NVP pays ~N× execution cost always but needs no
//! bespoke adjudicator; recovery blocks pay extra execution only on
//! failure but live and die by acceptance-test coverage; self-checking
//! matches NVP's latency with recovery blocks' explicit tests.

use redundancy_core::adjudicator::acceptance::FnAcceptance;
use redundancy_core::context::ExecContext;
use redundancy_core::variant::BoxedVariant;
use redundancy_faults::correlation::{correlated_versions, CorrelatedSuite};
use redundancy_faults::spec::{hash_fraction, mix64};
use redundancy_sim::parallel_tasks;
use redundancy_sim::table::Table;
use redundancy_techniques::nvp::NVersion;
use redundancy_techniques::recovery_blocks::RecoveryBlocks;
use redundancy_techniques::self_checking::SelfChecking;

use crate::fmt_rate;

/// One technique's measured point on the cost/efficacy plane.
#[derive(Debug, Clone, PartialEq)]
pub struct CostPoint {
    /// Technique label.
    pub technique: String,
    /// Fraction of correct deliveries.
    pub reliability: f64,
    /// Mean work units per request (execution cost).
    pub mean_work: f64,
    /// Mean virtual latency per request.
    pub mean_latency: f64,
    /// Design cost (number of independently designed artifacts; an
    /// acceptance test counts 0.5).
    pub design_cost: f64,
}

const DENSITY: f64 = 0.25;

fn versions(seed: u64) -> Vec<BoxedVariant<u64, u64>> {
    correlated_versions(
        CorrelatedSuite::new(3, DENSITY, 0.0, seed),
        |x: &u64| x * 2,
        |c, _| c + 1001,
    )
}

/// An acceptance test with tunable coverage: it recognizes the +1001
/// corruption only on a `coverage` fraction of the input space (a test
/// that checks only some properties).
fn coverage_test(coverage: f64, seed: u64) -> FnAcceptance<impl Fn(&u64, &u64) -> bool> {
    FnAcceptance::new("partial-coverage", move |x: &u64, out: &u64| {
        let wrong = *out > x * 2 + 100;
        if !wrong {
            return true;
        }
        // The test notices the wrongness only for covered inputs.
        hash_fraction(mix64(*x, seed ^ 0x00c0_ffee)) >= coverage
    })
}

fn measure<F>(trials: usize, seed: u64, design_cost: f64, label: &str, mut run_one: F) -> CostPoint
where
    F: FnMut(&u64, &mut ExecContext) -> Option<u64>,
{
    let mut ctx = ExecContext::new(seed);
    let mut correct = 0;
    for x in 0..trials as u64 {
        if run_one(&x, &mut ctx) == Some(x * 2) {
            correct += 1;
        }
    }
    let cost = ctx.cost();
    CostPoint {
        technique: label.to_owned(),
        reliability: correct as f64 / trials as f64,
        mean_work: cost.work_units as f64 / trials as f64,
        mean_latency: cost.virtual_ns as f64 / trials as f64,
        design_cost,
    }
}

/// NVP(3): three versions + free implicit adjudicator.
#[must_use]
pub fn nvp_point(trials: usize, seed: u64) -> CostPoint {
    let nvp = NVersion::new(versions(seed));
    measure(trials, seed, 3.0, "N-version programming (3)", |x, ctx| {
        nvp.run(x, ctx).into_output()
    })
}

/// Recovery blocks with an acceptance test of the given coverage.
#[must_use]
pub fn recovery_blocks_point(trials: usize, seed: u64, coverage: f64) -> CostPoint {
    let mut rb = RecoveryBlocks::new(coverage_test(coverage, seed));
    for v in versions(seed) {
        rb = rb.with_alternate(v);
    }
    let label = format!("Recovery blocks (coverage {coverage:.1})");
    measure(trials, seed, 3.5, &label, |x, ctx| {
        rb.run(x, ctx).into_output()
    })
}

/// Self-checking programming (3 tested components, full coverage).
#[must_use]
pub fn self_checking_point(trials: usize, seed: u64) -> CostPoint {
    let mut sc = SelfChecking::new();
    for v in versions(seed) {
        sc = sc.with_tested_component(v, coverage_test(1.0, seed));
    }
    measure(trials, seed, 3.5, "Self-checking programming", |x, ctx| {
        sc.run(x, ctx).into_output()
    })
}

/// Single version baseline.
#[must_use]
pub fn single_point(trials: usize, seed: u64) -> CostPoint {
    let mut all = versions(seed);
    let single = all.remove(0);
    measure(trials, seed, 1.0, "Single version", |x, ctx| {
        let mut child = ctx.fork(0);
        let out = single.execute(x, &mut child).ok();
        ctx.add_sequential_cost(child.cost());
        ctx.join(child);
        out
    })
}

/// Builds the E6 table, with the six technique measurements sharded across
/// up to `jobs` worker threads; every point seeds its own context, so the
/// table is identical for any `jobs`.
#[must_use]
pub fn run(trials: usize, seed: u64, jobs: usize) -> Table {
    let mut table = Table::new(&[
        "Technique",
        "reliability",
        "mean work",
        "mean latency",
        "design cost",
    ]);
    let tasks: Vec<_> = (0..6usize)
        .map(|idx| {
            move || match idx {
                0 => single_point(trials, seed),
                1 => nvp_point(trials, seed),
                2 => recovery_blocks_point(trials, seed, 1.0),
                3 => recovery_blocks_point(trials, seed, 0.8),
                4 => recovery_blocks_point(trials, seed, 0.5),
                _ => self_checking_point(trials, seed),
            }
        })
        .collect();
    let points = parallel_tasks(jobs, tasks);
    for p in points {
        table.row_owned(vec![
            p.technique.clone(),
            fmt_rate(p.reliability),
            format!("{:.1}", p.mean_work),
            format!("{:.1}", p.mean_latency),
            format!("{:.1}", p.design_cost),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: usize = 1500;
    const SEED: u64 = 0xe6;

    #[test]
    fn redundancy_beats_single_version() {
        let single = single_point(T, SEED);
        let nvp = nvp_point(T, SEED);
        let rb = recovery_blocks_point(T, SEED, 1.0);
        assert!(nvp.reliability > single.reliability + 0.1);
        assert!(rb.reliability > single.reliability + 0.1);
    }

    #[test]
    fn recovery_blocks_cost_less_work_than_nvp() {
        let nvp = nvp_point(T, SEED);
        let rb = recovery_blocks_point(T, SEED, 1.0);
        assert!(
            rb.mean_work < nvp.mean_work * 0.66,
            "rb {} vs nvp {}",
            rb.mean_work,
            nvp.mean_work
        );
    }

    #[test]
    fn acceptance_coverage_bounds_recovery_block_reliability() {
        let full = recovery_blocks_point(T, SEED, 1.0);
        let partial = recovery_blocks_point(T, SEED, 0.5);
        assert!(
            full.reliability > partial.reliability + 0.05,
            "full {} vs partial {}",
            full.reliability,
            partial.reliability
        );
        // With coverage c, a wrong primary output slips through with
        // probability (1-c): reliability ≈ 1 - p·(1-c) - residual.
        assert!(
            partial.reliability < 1.0 - DENSITY * 0.5 + 0.05,
            "partial {}",
            partial.reliability
        );
    }

    #[test]
    fn self_checking_latency_beats_recovery_blocks() {
        let sc = self_checking_point(T, SEED);
        let rb = recovery_blocks_point(T, SEED, 1.0);
        // Self-checking runs spares in parallel: latency ≈ critical path,
        // while recovery blocks serialize retries.
        assert!(
            sc.mean_latency <= rb.mean_latency + 1.0,
            "sc {} vs rb {}",
            sc.mean_latency,
            rb.mean_latency
        );
        // But it pays NVP-like execution cost.
        assert!(
            sc.mean_work > rb.mean_work,
            "sc {} vs rb {}",
            sc.mean_work,
            rb.mean_work
        );
    }

    #[test]
    fn table_renders_six_rows() {
        assert_eq!(run(200, SEED, 1).len(), 6);
    }

    #[test]
    fn table_is_identical_for_any_job_count() {
        crate::assert_jobs_invariant!(|jobs| run(200, SEED, jobs));
    }
}
