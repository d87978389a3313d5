//! N-version programming (paper §4.1; Avizienis 1985).
//!
//! Several independently designed versions run in parallel on the same
//! input; a general voting algorithm selects the output supported by a
//! majority. A system of `2k + 1` versions tolerates `k` faulty results —
//! the property experiment E4 measures, and whose erosion under
//! correlated faults experiment E5 reproduces.
//!
//! Classification (Table 2): deliberate / code / reactive-implicit /
//! development.

use redundancy_core::adjudicator::voting::MajorityVoter;
use redundancy_core::adjudicator::Adjudicator;
use redundancy_core::context::ExecContext;
use redundancy_core::patterns::{
    run_technique_span, verdict_status, DecisionPolicy, ExecutionMode, ParallelEvaluation,
    PatternReport,
};
use redundancy_core::taxonomy::{
    Adjudication, ArchitecturalPattern, Classification, FaultSet, Intention, RedundancyType,
};
use redundancy_core::technique::TechniqueEntry;
use redundancy_core::variant::BoxedVariant;

/// Table 2 row for N-version programming.
pub const ENTRY: TechniqueEntry = TechniqueEntry {
    name: "N-version programming",
    classification: Classification::new(
        Intention::Deliberate,
        RedundancyType::Code,
        Adjudication::ReactiveImplicit,
        FaultSet::DEVELOPMENT,
    ),
    patterns: &[ArchitecturalPattern::ParallelEvaluation],
    citations: &["Avizienis 1985", "Looker 2005", "Dobson 2006", "Gashi 2004"],
};

/// Number of versions required to tolerate `k` simultaneous faulty
/// results under majority voting (the paper's `2k + 1` rule).
#[must_use]
pub fn versions_to_tolerate(k: usize) -> usize {
    2 * k + 1
}

/// An N-version program: versions plus an implicit majority adjudicator.
///
/// # Examples
///
/// ```
/// use redundancy_core::context::ExecContext;
/// use redundancy_core::variant::pure_variant;
/// use redundancy_techniques::nvp::NVersion;
///
/// let nvp = NVersion::new(vec![
///     pure_variant("v1", 10, |x: &i64| x * x),
///     pure_variant("v2", 12, |x: &i64| x * x),
///     pure_variant("v3", 9, |x: &i64| x * x + 1), // faulty
/// ]);
/// let mut ctx = ExecContext::new(0);
/// assert_eq!(nvp.run(&7, &mut ctx).into_output(), Some(49));
/// ```
pub struct NVersion<I, O> {
    pattern: ParallelEvaluation<I, O>,
    versions: usize,
}

impl<I, O> NVersion<I, O>
where
    O: Clone + PartialEq + 'static,
{
    /// Creates an N-version program with majority voting.
    ///
    /// # Panics
    ///
    /// Panics if `versions` is empty.
    #[must_use]
    pub fn new(versions: Vec<BoxedVariant<I, O>>) -> Self {
        Self::with_adjudicator(versions, MajorityVoter::new())
    }

    /// Creates an N-version program with a custom implicit adjudicator
    /// (plurality, median, tolerance voting — the E4 ablation).
    ///
    /// # Panics
    ///
    /// Panics if `versions` is empty.
    #[must_use]
    pub fn with_adjudicator(
        versions: Vec<BoxedVariant<I, O>>,
        adjudicator: impl Adjudicator<O> + 'static,
    ) -> Self {
        assert!(!versions.is_empty(), "N-version programming needs versions");
        let n = versions.len();
        let mut pattern = ParallelEvaluation::new(adjudicator);
        for v in versions {
            pattern.push_variant(v);
        }
        Self {
            pattern,
            versions: n,
        }
    }

    /// Switches to real threads for version execution.
    #[must_use]
    pub fn threaded(mut self) -> Self {
        self.pattern = self.pattern.with_mode(ExecutionMode::Threaded);
        self
    }

    /// Sets the decision policy. Under [`DecisionPolicy::Eager`] the vote
    /// concludes the moment a quorum is mathematically fixed: remaining
    /// versions are skipped (sequential mode) or cooperatively cancelled
    /// (threaded mode), reducing cost without changing the disposition or
    /// the accepted output.
    #[must_use]
    pub fn with_policy(mut self, policy: DecisionPolicy) -> Self {
        self.pattern = self.pattern.with_policy(policy);
        self
    }

    /// The decision policy in effect.
    #[must_use]
    pub fn policy(&self) -> DecisionPolicy {
        self.pattern.policy()
    }

    /// Number of versions.
    #[must_use]
    pub fn versions(&self) -> usize {
        self.versions
    }

    /// Maximum number of faulty results tolerated under majority voting.
    #[must_use]
    pub fn tolerated_faults(&self) -> usize {
        (self.versions - 1) / 2
    }

    /// Runs all versions and votes.
    pub fn run(&self, input: &I, ctx: &mut ExecContext) -> PatternReport<O>
    where
        I: Sync,
        O: Send,
    {
        run_technique_span(
            ctx,
            "n-version",
            |ctx| self.pattern.run(input, ctx),
            |report| verdict_status(&report.verdict),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redundancy_core::variant::pure_variant;
    use redundancy_faults::correlation::{correlated_versions, CorrelatedSuite};
    use redundancy_faults::{FaultSpec, FaultyVariant};

    #[test]
    fn masks_k_faults_with_2k_plus_1_versions() {
        for k in 0..3 {
            let n = versions_to_tolerate(k);
            let mut versions: Vec<BoxedVariant<i64, i64>> = Vec::new();
            for v in 0..n {
                if v < k {
                    versions.push(pure_variant(&format!("bad{v}"), 5, move |x: &i64| {
                        x + 100 + v as i64
                    }));
                } else {
                    versions.push(pure_variant(&format!("good{v}"), 5, |x: &i64| x * 2));
                }
            }
            let nvp = NVersion::new(versions);
            assert_eq!(nvp.tolerated_faults(), k);
            let mut ctx = ExecContext::new(1);
            assert_eq!(nvp.run(&21, &mut ctx).into_output(), Some(42), "k={k}");
        }
    }

    #[test]
    fn fails_beyond_tolerance() {
        // 2 of 3 wrong (and disagreeing): no majority.
        let nvp = NVersion::new(vec![
            pure_variant("good", 5, |x: &i64| x * 2),
            pure_variant("bad1", 5, |x: &i64| x + 100),
            pure_variant("bad2", 5, |x: &i64| x + 200),
        ]);
        let mut ctx = ExecContext::new(1);
        assert!(!nvp.run(&1, &mut ctx).is_accepted());
    }

    #[test]
    fn colluding_majority_wins_silently() {
        // The dreaded correlated case: 2 of 3 wrong *in the same way*.
        let nvp = NVersion::new(vec![
            pure_variant("good", 5, |x: &i64| x * 2),
            pure_variant("bad1", 5, |x: &i64| x + 100),
            pure_variant("bad2", 5, |x: &i64| x + 100),
        ]);
        let mut ctx = ExecContext::new(1);
        let out = nvp.run(&1, &mut ctx).into_output();
        assert_eq!(out, Some(101), "correlated faults outvote the truth");
    }

    #[test]
    fn reliability_improves_with_n_on_independent_faults() {
        let reliability = |n: usize| {
            let versions = correlated_versions(
                CorrelatedSuite::new(n, 0.15, 0.0, 7),
                |x: &u64| x * 2,
                |c, _| c + 1,
            );
            let nvp = NVersion::new(versions);
            let mut ctx = ExecContext::new(3);
            let ok = (0..600u64)
                .filter(|x| nvp.run(x, &mut ctx).into_output() == Some(x * 2))
                .count();
            ok as f64 / 600.0
        };
        let r1 = reliability(1);
        let r3 = reliability(3);
        let r5 = reliability(5);
        assert!(r3 > r1 + 0.05, "r1={r1}, r3={r3}");
        assert!(r5 >= r3 - 0.02, "r3={r3}, r5={r5}");
    }

    #[test]
    fn correlation_erodes_the_gain() {
        let reliability = |rho: f64| {
            let versions = correlated_versions(
                CorrelatedSuite::new(3, 0.15, rho, 11),
                |x: &u64| x * 2,
                |c, _| c + 1,
            );
            let nvp = NVersion::new(versions);
            let mut ctx = ExecContext::new(5);
            let n = 3000u64;
            let ok = (0..n)
                .filter(|x| nvp.run(x, &mut ctx).into_output() == Some(x * 2))
                .count();
            ok as f64 / n as f64
        };
        // Independent regions: failures need >= 2 of 3 versions wrong on
        // the same input, ~0.061 -> reliability ~0.94. Fully correlated:
        // reliability collapses to single-version ~0.85.
        let independent = reliability(0.0);
        let correlated = reliability(1.0);
        assert!(
            independent > correlated + 0.03,
            "independent={independent}, correlated={correlated}"
        );
        assert!((correlated - 0.85).abs() < 0.03, "correlated={correlated}");
    }

    #[test]
    fn detectable_failures_do_not_confuse_the_vote() {
        let crashing = FaultyVariant::builder("crasher", 5, |x: &i64| x * 2)
            .fault(FaultSpec::heisenbug("h", 1.0))
            .build_boxed();
        let nvp = NVersion::new(vec![
            pure_variant("good1", 5, |x: &i64| x * 2),
            pure_variant("good2", 5, |x: &i64| x * 2),
            crashing,
        ]);
        let mut ctx = ExecContext::new(1);
        assert_eq!(nvp.run(&5, &mut ctx).into_output(), Some(10));
    }

    #[test]
    fn threaded_mode_matches_sequential() {
        let mk = || {
            vec![
                pure_variant("a", 5, |x: &i64| x + 1),
                pure_variant("b", 6, |x: &i64| x + 1),
                pure_variant("c", 7, |x: &i64| x + 2),
            ]
        };
        let mut c1 = ExecContext::new(9);
        let mut c2 = ExecContext::new(9);
        let seq = NVersion::new(mk()).run(&1, &mut c1);
        let thr = NVersion::new(mk()).threaded().run(&1, &mut c2);
        assert_eq!(seq.verdict, thr.verdict);
    }

    #[test]
    fn eager_policy_skips_versions_once_majority_is_fixed() {
        let mk = |policy| {
            NVersion::new(vec![
                pure_variant("a", 10, |x: &i64| x * 2),
                pure_variant("b", 10, |x: &i64| x * 2),
                pure_variant("c", 10, |x: &i64| x * 2),
                pure_variant("d", 10, |x: &i64| x * 2),
                pure_variant("e", 10, |x: &i64| x * 2),
            ])
            .with_policy(policy)
        };
        let mut c1 = ExecContext::new(2);
        let exhaustive = mk(DecisionPolicy::Exhaustive).run(&4, &mut c1);
        let mut c2 = ExecContext::new(2);
        let eager = mk(DecisionPolicy::Eager).run(&4, &mut c2);

        assert_eq!(eager.into_output(), Some(8));
        assert_eq!(exhaustive.skipped(), 0);
        // Majority (3 of 5) fixed after the third agreeing version.
        let eager = {
            let mut ctx = ExecContext::new(2);
            mk(DecisionPolicy::Eager).run(&4, &mut ctx)
        };
        assert_eq!(eager.executed(), 3);
        assert_eq!(eager.skipped(), 2);
        assert!(c2.cost().work_units < c1.cost().work_units);
    }

    #[test]
    fn entry_matches_table2() {
        assert_eq!(ENTRY.classification.intention, Intention::Deliberate);
        assert_eq!(ENTRY.classification.redundancy, RedundancyType::Code);
        assert_eq!(
            ENTRY.classification.adjudication,
            Adjudication::ReactiveImplicit
        );
        assert_eq!(ENTRY.classification.faults, FaultSet::DEVELOPMENT);
        assert_eq!(ENTRY.name, "N-version programming");
        assert!(!ENTRY.citations.is_empty());
    }

    #[test]
    #[should_panic(expected = "needs versions")]
    fn empty_versions_panic() {
        let _: NVersion<i64, i64> = NVersion::new(vec![]);
    }
}
