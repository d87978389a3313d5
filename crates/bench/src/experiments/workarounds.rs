//! Experiment E13 — automatic workarounds (Carzaniga 2008): fraction of
//! failures worked around vs the degree of intrinsic redundancy
//! (equivalence rules known to the engine).
//!
//! Expected shape: with no rules nothing can be worked around; each
//! additional family of equivalences rescues the failure scenarios it
//! covers; the full rule set rescues (in this API) every scenario.

use redundancy_core::rng::SplitMix64;
use redundancy_sim::parallel_tasks;
use redundancy_sim::table::Table;
use redundancy_techniques::workarounds::container::{rules, Container, Op};
use redundancy_techniques::workarounds::{OpSystem, RewriteRule, WorkaroundEngine};

use crate::fmt_rate;

/// A failure scenario: a seeded fault and a sequence that trips it.
fn scenarios(rng: &mut SplitMix64, count: usize) -> Vec<(Op, usize, Vec<Op>)> {
    (0..count)
        .map(|_| match rng.index(3) {
            0 => (Op::Add, 1, vec![Op::Add, Op::Add]),
            1 => (Op::Reverse, 2, vec![Op::AddPair, Op::Reverse, Op::Reverse]),
            _ => (
                Op::Add,
                2,
                // add;add;add trips at len 2; rewriting the prefix to
                // add-pair escapes it.
                vec![Op::Add, Op::Add, Op::Add],
            ),
        })
        .collect()
}

/// Workaround success rate with the given rule set.
#[must_use]
pub fn success_rate(rule_set: &[RewriteRule<Op>], trials: usize, seed: u64) -> f64 {
    let engine = WorkaroundEngine::new(rule_set.to_vec());
    let mut rng = SplitMix64::new(seed);
    let mut applicable = 0;
    let mut worked = 0;
    for (fault_op, fault_len, seq) in scenarios(&mut rng, trials) {
        let mut system = Container::new().with_fault(fault_op, fault_len);
        if system.execute(&seq).is_ok() {
            continue;
        }
        applicable += 1;
        if engine.find_workaround(&mut system, &seq).is_ok() {
            worked += 1;
        }
    }
    if applicable == 0 {
        return 1.0;
    }
    worked as f64 / applicable as f64
}

/// Builds the E13 table: success rate vs rule-set size, with the
/// rule-set-size sweep sharded across up to `jobs` worker threads; every
/// row builds its own rule set and RNG, so the table is identical for any
/// `jobs`.
#[must_use]
pub fn run(trials: usize, seed: u64, jobs: usize) -> Table {
    let mut table = Table::new(&["equivalence rules known", "failures worked around"]);
    let tasks: Vec<_> = (0..=rules().len())
        .map(|k| move || success_rate(&rules()[..k], trials, seed))
        .collect();
    let results = parallel_tasks(jobs, tasks);
    for (k, rate) in results.into_iter().enumerate() {
        table.row_owned(vec![k.to_string(), fmt_rate(rate)]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: usize = 400;
    const SEED: u64 = 0xe13;

    #[test]
    fn no_rules_no_workarounds() {
        assert!(success_rate(&[], T, SEED).abs() < f64::EPSILON);
    }

    #[test]
    fn success_grows_with_rules() {
        let all = rules();
        let r1 = success_rate(&all[..1], T, SEED);
        let r_all = success_rate(&all, T, SEED);
        assert!(r1 > 0.0);
        assert!(r_all > r1, "r1={r1}, all={r_all}");
        assert!(r_all > 0.95, "all={r_all}");
    }

    #[test]
    fn every_scenario_actually_fails_without_help() {
        let mut rng = SplitMix64::new(SEED);
        for (fault_op, fault_len, seq) in scenarios(&mut rng, 50) {
            let mut sys = Container::new().with_fault(fault_op, fault_len);
            assert!(sys.execute(&seq).is_err(), "scenario does not manifest");
        }
    }

    #[test]
    fn table_renders() {
        assert_eq!(run(50, SEED, 1).len(), rules().len() + 1);
    }

    #[test]
    fn table_is_identical_for_any_job_count() {
        crate::assert_jobs_invariant!(|jobs| run(50, SEED, jobs));
    }
}
