//! Experiment E16 — robust data structures (Taylor 1980): detection and
//! repair rates by corruption type and burst size.
//!
//! Expected shape: every single corruption of one redundancy element
//! (count, a next pointer, a prev pointer) is detected and repaired from
//! the surviving redundancy; double hits that damage *both* chains start
//! to exceed the redundancy and some become unrepairable.

use redundancy_core::rng::SplitMix64;
use redundancy_sim::parallel_tasks;
use redundancy_sim::table::Table;
use redundancy_techniques::robust_data::{RepairOutcome, RobustList};

use crate::fmt_rate;

/// Detection/repair statistics for one corruption pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairStats {
    /// Corruptions flagged by the audit.
    pub detected: f64,
    /// Corruptions fully repaired.
    pub repaired: f64,
}

/// The corruption patterns swept by the experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Damage {
    /// Overwrite the redundant count.
    Count,
    /// Null one next pointer.
    NextNull,
    /// Redirect one next pointer (possible cycle).
    NextRedirect,
    /// Null one prev pointer.
    PrevNull,
    /// One hit on each chain.
    BothChains,
}

impl Damage {
    /// All patterns.
    pub const ALL: [Damage; 5] = [
        Damage::Count,
        Damage::NextNull,
        Damage::NextRedirect,
        Damage::PrevNull,
        Damage::BothChains,
    ];

    fn label(self) -> &'static str {
        match self {
            Damage::Count => "count overwrite",
            Damage::NextNull => "next pointer nulled",
            Damage::NextRedirect => "next pointer redirected",
            Damage::PrevNull => "prev pointer nulled",
            Damage::BothChains => "both chains hit",
        }
    }

    fn apply(self, list: &mut RobustList<u64>, n: usize, rng: &mut SplitMix64) {
        match self {
            Damage::Count => list.corrupt_count(rng.index(100)),
            Damage::NextNull => list.corrupt_next(rng.index(n), None),
            Damage::NextRedirect => {
                let pos = rng.index(n);
                let target = rng.index(n);
                list.corrupt_next(pos, Some(target));
            }
            Damage::PrevNull => list.corrupt_prev(rng.index(n), None),
            Damage::BothChains => {
                // prev first: corrupt_prev locates via the forward chain.
                list.corrupt_prev(rng.index(n), None);
                list.corrupt_next(rng.index(n), None);
            }
        }
    }
}

/// Measures one damage pattern over `trials` random lists.
#[must_use]
pub fn measure(damage: Damage, trials: usize, seed: u64) -> RepairStats {
    let mut rng = SplitMix64::new(seed);
    let mut detected = 0usize;
    let mut repaired = 0usize;
    let mut manifested = 0usize;
    for _ in 0..trials {
        let n = 4 + rng.index(10);
        let mut list: RobustList<u64> = (0..n as u64).collect();
        damage.apply(&mut list, n, &mut rng);
        if list.audit().is_clean() {
            // Damage happened to be a no-op (e.g. count overwritten with
            // the correct value); skip.
            continue;
        }
        manifested += 1;
        detected += 1; // audit flagged it
        if list.repair() == RepairOutcome::Repaired {
            repaired += 1;
        }
    }
    let m = manifested.max(1) as f64;
    RepairStats {
        detected: detected as f64 / m,
        repaired: repaired as f64 / m,
    }
}

/// Builds the E16 table, with the corruption patterns sharded across up to
/// `jobs` worker threads; every pattern seeds its own RNG, so the table is
/// identical for any `jobs`.
#[must_use]
pub fn run(trials: usize, seed: u64, jobs: usize) -> Table {
    let mut table = Table::new(&["corruption", "detected", "repaired"]);
    let tasks: Vec<_> = Damage::ALL
        .iter()
        .map(|&damage| move || measure(damage, trials, seed))
        .collect();
    let results = parallel_tasks(jobs, tasks);
    for (damage, stats) in Damage::ALL.iter().zip(results) {
        table.row_owned(vec![
            damage.label().to_owned(),
            fmt_rate(stats.detected),
            fmt_rate(stats.repaired),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: usize = 500;
    const SEED: u64 = 0xe16;

    #[test]
    fn single_corruptions_fully_detected_and_repaired() {
        for damage in [
            Damage::Count,
            Damage::NextNull,
            Damage::NextRedirect,
            Damage::PrevNull,
        ] {
            let stats = measure(damage, T, SEED);
            assert!(
                (stats.detected - 1.0).abs() < f64::EPSILON,
                "{damage:?} detected {}",
                stats.detected
            );
            assert!(
                (stats.repaired - 1.0).abs() < f64::EPSILON,
                "{damage:?} repaired {}",
                stats.repaired
            );
        }
    }

    #[test]
    fn double_chain_hits_exceed_the_redundancy_sometimes() {
        let stats = measure(Damage::BothChains, T, SEED);
        assert!((stats.detected - 1.0).abs() < f64::EPSILON);
        assert!(stats.repaired < 1.0, "double hits cannot all be repaired");
        assert!(
            stats.repaired > 0.1,
            "some double hits are still repairable"
        );
    }

    #[test]
    fn table_renders_five_rows() {
        assert_eq!(run(50, SEED, 1).len(), 5);
    }

    #[test]
    fn table_is_identical_for_any_job_count() {
        crate::assert_jobs_invariant!(|jobs| run(50, SEED, jobs));
    }
}
