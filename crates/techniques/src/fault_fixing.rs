//! Fault fixing with genetic programming (paper §5.1; Weimer 2009,
//! Arcuri & Yao 2008).
//!
//! When the test suite (the explicit adjudicator) reports a failure, the
//! runtime evolves variants of the faulty program — exploiting the
//! *implicit* redundancy of program space around the original — until a
//! variant passes every test. Unlike N-version programming, nobody ever
//! wrote the redundant code: it is searched for, opportunistically.
//!
//! Classification (Table 2): opportunistic / code / reactive-explicit /
//! Bohrbugs.

use redundancy_core::rng::SplitMix64;
use redundancy_core::taxonomy::{
    Adjudication, ArchitecturalPattern, Classification, FaultSet, Intention, RedundancyType,
};
use redundancy_core::technique::TechniqueEntry;
use redundancy_gp::ast::Expr;
use redundancy_gp::engine::{Gp, GpParams, GpResult};
use redundancy_gp::suite::TestSuite;

/// Table 2 row for GP-based fault fixing.
pub const ENTRY: TechniqueEntry = TechniqueEntry {
    name: "Fault fixing, genetic programming",
    classification: Classification::new(
        Intention::Opportunistic,
        RedundancyType::Code,
        Adjudication::ReactiveExplicit,
        FaultSet::BOHRBUGS,
    ),
    patterns: &[ArchitecturalPattern::IntraComponent],
    citations: &["Weimer 2009", "Arcuri & Yao 2008"],
};

/// The outcome of a fix attempt for one program.
#[derive(Debug, Clone, PartialEq)]
pub struct FixReport {
    /// Whether the bug manifested on the suite at all.
    pub bug_manifested: bool,
    /// Whether a full fix was found.
    pub fixed: bool,
    /// Best fitness reached (tests passed / total).
    pub best_fitness: usize,
    /// Total tests.
    pub total_tests: usize,
    /// Generations used.
    pub generations: usize,
    /// The best program (the fix when `fixed`).
    pub best_program: Expr,
}

/// The fault-fixing runtime.
#[derive(Debug, Clone)]
pub struct FaultFixer {
    params: GpParams,
}

impl FaultFixer {
    /// Creates a fixer with the given GP parameters.
    #[must_use]
    pub fn new(params: GpParams) -> Self {
        Self { params }
    }

    /// Attempts to fix `faulty` (over `arity` inputs) against `suite`.
    pub fn fix(
        &self,
        faulty: &Expr,
        arity: usize,
        suite: &TestSuite,
        rng: &mut SplitMix64,
    ) -> FixReport {
        let bug_manifested = !suite.all_pass(faulty);
        if !bug_manifested {
            return FixReport {
                bug_manifested: false,
                fixed: true,
                best_fitness: suite.len(),
                total_tests: suite.len(),
                generations: 0,
                best_program: faulty.clone(),
            };
        }
        let gp = Gp::new(arity, self.params);
        let GpResult {
            best,
            best_fitness,
            total_cases,
            generations_used,
            ..
        } = gp.repair(faulty, suite, rng);
        FixReport {
            bug_manifested: true,
            fixed: best_fitness == total_cases,
            best_fitness,
            total_tests: total_cases,
            generations: generations_used,
            best_program: best,
        }
    }
}

impl Default for FaultFixer {
    fn default() -> Self {
        Self::new(GpParams::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redundancy_gp::corpus::corpus;

    #[test]
    fn fixes_most_of_the_corpus() {
        let fixer = FaultFixer::new(GpParams {
            population: 150,
            generations: 80,
            ..GpParams::default()
        });
        let mut rng = SplitMix64::new(2024);
        let mut fixed = 0;
        let mut total = 0;
        for program in corpus() {
            let suite = program.suite(50, &mut rng);
            let report = fixer.fix(&program.faulty, program.arity, &suite, &mut rng);
            assert!(report.bug_manifested, "{}", program.name);
            total += 1;
            if report.fixed {
                fixed += 1;
                assert!(suite.all_pass(&report.best_program));
            }
        }
        // GP is stochastic; demand a solid majority rather than all 8.
        assert!(fixed * 2 > total, "fixed only {fixed}/{total}");
    }

    #[test]
    fn already_passing_program_is_not_touched() {
        use redundancy_gp::ast::build::{add, c, v};
        let fixer = FaultFixer::default();
        let correct = add(v(0), c(1));
        let mut rng = SplitMix64::new(1);
        let suite = TestSuite::from_reference(|xs| xs[0] + 1, 1, 20, -50, 50, &mut rng);
        let report = fixer.fix(&correct, 1, &suite, &mut rng);
        assert!(!report.bug_manifested);
        assert!(report.fixed);
        assert_eq!(report.generations, 0);
        assert_eq!(report.best_program, correct);
    }

    #[test]
    fn honest_partial_report_when_budget_too_small() {
        use redundancy_gp::ast::build::c;
        let fixer = FaultFixer::new(GpParams {
            population: 8,
            generations: 1,
            ..GpParams::default()
        });
        let mut rng = SplitMix64::new(3);
        let suite = TestSuite::from_reference(
            |xs| xs[0] * xs[0] * xs[0] - 7 * xs[1] + 13,
            2,
            50,
            -40,
            40,
            &mut rng,
        );
        let report = fixer.fix(&c(0), 2, &suite, &mut rng);
        assert!(report.bug_manifested);
        assert!(report.best_fitness <= report.total_tests);
        if !report.fixed {
            assert!(report.best_fitness < report.total_tests);
        }
    }

    #[test]
    fn entry_matches_table2() {
        assert_eq!(ENTRY.classification.intention, Intention::Opportunistic);
        assert_eq!(ENTRY.classification.faults, FaultSet::BOHRBUGS);
        assert_eq!(
            ENTRY.classification.adjudication,
            Adjudication::ReactiveExplicit
        );
        assert_eq!(ENTRY.name, "Fault fixing, genetic programming");
    }
}
