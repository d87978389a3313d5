//! Implicit adjudicators: voters that compare redundant outputs.
//!
//! These realize the "general voting algorithm" of N-version programming
//! (Avizienis): outputs are grouped into agreement classes and the class
//! with sufficient support wins. The paper's observation that a system of
//! `2k + 1` versions tolerates `k` faulty results is a direct property of
//! [`MajorityVoter`], verified by the property tests at the bottom of this
//! module and measured by experiment E4.
//!
//! The four exact-equality voters (majority, plurality, quorum,
//! unanimity) all decide through one implementation, the zero-alloc row
//! kernel [`batch::vote_row`]. The inexact voters (median, tolerance,
//! trimmed mean) compare outputs by order or distance rather than
//! equality and keep their own scalar paths.

use crate::adjudicator::batch::{self, VoteRule};
use crate::adjudicator::incremental::{IncrementalAdjudicator, StreamingUnanimity, StreamingVote};
use crate::adjudicator::Adjudicator;
use crate::outcome::{RejectionReason, VariantOutcome, Verdict};
use crate::taxonomy::Adjudication;

/// Strict-majority voter: accepts an output agreed on by more than half of
/// *all* outcomes (failed outcomes count against the majority, as in
/// classic N-version programming where a crashed version cannot vote).
///
/// # Examples
///
/// ```
/// use redundancy_core::adjudicator::{Adjudicator, voting::MajorityVoter};
/// use redundancy_core::outcome::VariantOutcome;
///
/// let adj = MajorityVoter::new();
/// let outcomes = vec![
///     VariantOutcome::ok("v1", 4),
///     VariantOutcome::ok("v2", 4),
///     VariantOutcome::ok("v3", 9), // one faulty version
/// ];
/// assert_eq!(adj.adjudicate(&outcomes).into_output(), Some(4));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct MajorityVoter;

impl MajorityVoter {
    /// Creates a strict-majority voter.
    #[must_use]
    pub fn new() -> Self {
        MajorityVoter
    }
}

impl<O: Clone + PartialEq> Adjudicator<O> for MajorityVoter {
    fn name(&self) -> &str {
        "majority-voter"
    }

    fn adjudication(&self) -> Adjudication {
        Adjudication::ReactiveImplicit
    }

    fn adjudicate(&self, outcomes: &[VariantOutcome<O>]) -> Verdict<O> {
        batch::vote_row(VoteRule::Majority, outcomes)
    }

    fn begin_incremental<'a>(&'a self, total: usize) -> Box<dyn IncrementalAdjudicator<O> + 'a>
    where
        O: 'a,
    {
        Box::new(StreamingVote::new(self, total / 2 + 1, total))
    }

    fn vote_rule(&self) -> Option<VoteRule> {
        Some(VoteRule::Majority)
    }
}

/// Plurality voter: accepts the most common output, requiring only that it
/// beat every other agreement class (ties are rejected). Weaker than
/// majority but tolerates more detectable failures.
#[derive(Debug, Clone, Copy, Default)]
pub struct PluralityVoter;

impl PluralityVoter {
    /// Creates a plurality voter.
    #[must_use]
    pub fn new() -> Self {
        PluralityVoter
    }
}

impl<O: Clone + PartialEq> Adjudicator<O> for PluralityVoter {
    fn name(&self) -> &str {
        "plurality-voter"
    }

    fn adjudication(&self) -> Adjudication {
        Adjudication::ReactiveImplicit
    }

    fn adjudicate(&self, outcomes: &[VariantOutcome<O>]) -> Verdict<O> {
        batch::vote_row(VoteRule::Plurality, outcomes)
    }

    fn begin_incremental<'a>(&'a self, total: usize) -> Box<dyn IncrementalAdjudicator<O> + 'a>
    where
        O: 'a,
    {
        // The streaming accept condition requires a strict, uncatchable
        // lead, which subsumes plurality's tie rejection.
        Box::new(StreamingVote::new(self, 1, total))
    }

    fn vote_rule(&self) -> Option<VoteRule> {
        Some(VoteRule::Plurality)
    }
}

/// Quorum voter: accepts an output supported by at least `quorum` outcomes.
/// `QuorumVoter::new(2)` is the comparison adjudicator of self-checking
/// duplex pairs (Laprie et al.).
#[derive(Debug, Clone, Copy)]
pub struct QuorumVoter {
    quorum: usize,
}

impl QuorumVoter {
    /// Creates a voter requiring `quorum` agreeing outputs.
    ///
    /// # Panics
    ///
    /// Panics if `quorum == 0`.
    #[must_use]
    pub fn new(quorum: usize) -> Self {
        assert!(quorum > 0, "quorum must be at least 1");
        Self { quorum }
    }

    /// The required agreement count.
    #[must_use]
    pub fn quorum(&self) -> usize {
        self.quorum
    }
}

impl<O: Clone + PartialEq> Adjudicator<O> for QuorumVoter {
    fn name(&self) -> &str {
        "quorum-voter"
    }

    fn adjudication(&self) -> Adjudication {
        Adjudication::ReactiveImplicit
    }

    fn adjudicate(&self, outcomes: &[VariantOutcome<O>]) -> Verdict<O> {
        batch::vote_row(VoteRule::Quorum(self.quorum), outcomes)
    }

    fn begin_incremental<'a>(&'a self, total: usize) -> Box<dyn IncrementalAdjudicator<O> + 'a>
    where
        O: 'a,
    {
        Box::new(StreamingVote::new(self, self.quorum, total))
    }

    fn vote_rule(&self) -> Option<VoteRule> {
        Some(VoteRule::Quorum(self.quorum))
    }
}

/// Unanimity voter: accepts only if *every* outcome succeeded and all
/// outputs agree. This is the adjudicator of N-variant systems for security
/// (Cox et al.): any divergence between replicas signals an attack.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnanimityVoter;

impl UnanimityVoter {
    /// Creates a unanimity voter.
    #[must_use]
    pub fn new() -> Self {
        UnanimityVoter
    }
}

impl<O: Clone + PartialEq> Adjudicator<O> for UnanimityVoter {
    fn name(&self) -> &str {
        "unanimity-voter"
    }

    fn adjudication(&self) -> Adjudication {
        Adjudication::ReactiveImplicit
    }

    fn adjudicate(&self, outcomes: &[VariantOutcome<O>]) -> Verdict<O> {
        batch::vote_row(VoteRule::Unanimity, outcomes)
    }

    fn begin_incremental<'a>(&'a self, total: usize) -> Box<dyn IncrementalAdjudicator<O> + 'a>
    where
        O: 'a,
    {
        // Unanimity streams negatively: the first failure or divergence
        // decides rejection on the spot. (When a stream contains both, the
        // incremental rejection *reason* is whichever came first, while
        // the batch voter reports `AllFailed`; the disposition agrees.)
        Box::new(StreamingUnanimity::new(self, total))
    }

    fn vote_rule(&self) -> Option<VoteRule> {
        Some(VoteRule::Unanimity)
    }
}

/// Median voter for totally ordered outputs: returns the median of the
/// successful outputs. Standard for numeric N-version outputs where exact
/// agreement is unlikely; tolerates up to half-minus-one corrupt values.
///
/// # Conventions
///
/// With an even number of successful outputs the *upper* middle is
/// returned (sorted index `len / 2`) — medians must be real outputs, not
/// interpolations, so one of the two middles has to be picked, and the
/// upper one is what `len / 2` indexing yields for odd counts too.
///
/// `dissent` counts every outcome that did not equal the median — both
/// detectably failed variants and successful-but-different outputs — per
/// the [`Verdict::Accepted`] contract ("contradicting the output,
/// including detectable failures"). Callers needing the crashed/deviating
/// split can recover it from the outcomes slice they already hold.
#[derive(Debug, Clone, Copy, Default)]
pub struct MedianVoter;

impl MedianVoter {
    /// Creates a median voter.
    #[must_use]
    pub fn new() -> Self {
        MedianVoter
    }
}

impl<O: Clone + Ord> Adjudicator<O> for MedianVoter {
    fn name(&self) -> &str {
        "median-voter"
    }

    fn adjudication(&self) -> Adjudication {
        Adjudication::ReactiveImplicit
    }

    fn adjudicate(&self, outcomes: &[VariantOutcome<O>]) -> Verdict<O> {
        if outcomes.is_empty() {
            return Verdict::rejected(RejectionReason::NoOutcomes);
        }
        let mut ok: Vec<&O> = outcomes.iter().filter_map(VariantOutcome::output).collect();
        if ok.is_empty() {
            return Verdict::rejected(RejectionReason::AllFailed);
        }
        ok.sort();
        let median = ok[ok.len() / 2].clone();
        let support = ok.iter().filter(|&&o| *o == median).count();
        Verdict::accepted(median, support, outcomes.len() - support)
    }
}

/// Tolerance voter for floating-point outputs: nearby outputs are
/// considered to agree (inexact voting, as needed when independently
/// designed numeric versions legitimately differ in low-order bits).
///
/// # Clustering convention
///
/// Successful finite outputs are sorted (by [`f64::total_cmp`]) and
/// clustered by *chained* agreement: consecutive sorted values belong to
/// one cluster while each adjacent gap is at most `epsilon`, so a cluster
/// may span more than `epsilon` end to end. The largest cluster wins,
/// with ties broken toward the smallest values (the leftmost cluster);
/// the accepted output is the cluster's upper-middle element (index
/// `len / 2`, matching [`MedianVoter`]'s even-count convention). This
/// makes the verdict a pure function of the *multiset* of outputs —
/// permutation-invariant, unlike greedy first-appearance clustering
/// where the arrival order of representatives could split or merge
/// clusters.
///
/// Non-finite outputs (NaN, ±∞) are treated as failed votes, exactly as
/// in [`TrimmedMeanVoter`]: NaN agrees with nothing under any epsilon,
/// and two same-signed infinities would otherwise "agree" at every
/// epsilon.
#[derive(Debug, Clone, Copy)]
pub struct ToleranceVoter {
    epsilon: f64,
    threshold: usize,
}

impl ToleranceVoter {
    /// Creates a voter accepting agreement within `epsilon`, requiring a
    /// cluster of at least `threshold` outputs.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is negative or not finite, or `threshold == 0`.
    #[must_use]
    pub fn new(epsilon: f64, threshold: usize) -> Self {
        assert!(
            epsilon.is_finite() && epsilon >= 0.0,
            "epsilon must be finite and non-negative"
        );
        assert!(threshold > 0, "threshold must be at least 1");
        Self { epsilon, threshold }
    }
}

impl Adjudicator<f64> for ToleranceVoter {
    fn name(&self) -> &str {
        "tolerance-voter"
    }

    fn adjudication(&self) -> Adjudication {
        Adjudication::ReactiveImplicit
    }

    fn adjudicate(&self, outcomes: &[VariantOutcome<f64>]) -> Verdict<f64> {
        if outcomes.is_empty() {
            return Verdict::rejected(RejectionReason::NoOutcomes);
        }
        let mut ok: Vec<f64> = outcomes
            .iter()
            .filter_map(VariantOutcome::output)
            .copied()
            .filter(|v| v.is_finite())
            .collect();
        if ok.is_empty() {
            return Verdict::rejected(RejectionReason::AllFailed);
        }
        ok.sort_by(f64::total_cmp);
        // Largest chained window over the sorted values; `>` (not `>=`)
        // keeps the leftmost window on ties.
        let mut best_start = 0usize;
        let mut best_len = 1usize;
        let mut start = 0usize;
        for i in 1..ok.len() {
            if ok[i] - ok[i - 1] > self.epsilon {
                start = i;
            }
            let len = i - start + 1;
            if len > best_len {
                best_start = start;
                best_len = len;
            }
        }
        if best_len < self.threshold {
            return Verdict::rejected(RejectionReason::NoQuorum);
        }
        let output = ok[best_start + best_len / 2];
        Verdict::accepted(output, best_len, outcomes.len() - best_len)
    }
}

/// Trimmed-mean voter for floating-point outputs: discards the `trim`
/// largest and smallest successful outputs and averages the rest — the
/// classic inexact voter for numeric N-version systems where versions
/// legitimately differ in low-order digits but corrupt values are
/// extreme.
#[derive(Debug, Clone, Copy)]
pub struct TrimmedMeanVoter {
    trim: usize,
}

impl TrimmedMeanVoter {
    /// Creates a voter trimming `trim` outputs from each end before
    /// averaging.
    #[must_use]
    pub fn new(trim: usize) -> Self {
        Self { trim }
    }
}

impl Adjudicator<f64> for TrimmedMeanVoter {
    fn name(&self) -> &str {
        "trimmed-mean-voter"
    }

    fn adjudication(&self) -> Adjudication {
        Adjudication::ReactiveImplicit
    }

    fn adjudicate(&self, outcomes: &[VariantOutcome<f64>]) -> Verdict<f64> {
        if outcomes.is_empty() {
            return Verdict::rejected(RejectionReason::NoOutcomes);
        }
        let mut ok: Vec<f64> = outcomes
            .iter()
            .filter_map(VariantOutcome::output)
            .copied()
            .filter(|v| v.is_finite())
            .collect();
        if ok.is_empty() {
            return Verdict::rejected(RejectionReason::AllFailed);
        }
        if ok.len() <= 2 * self.trim {
            return Verdict::rejected(RejectionReason::NoQuorum);
        }
        ok.sort_by(f64::total_cmp);
        let kept = &ok[self.trim..ok.len() - self.trim];
        let mean = kept.iter().sum::<f64>() / kept.len() as f64;
        Verdict::accepted(mean, kept.len(), outcomes.len() - kept.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oks<O: Clone>(values: &[O]) -> Vec<VariantOutcome<O>> {
        values
            .iter()
            .enumerate()
            .map(|(i, v)| VariantOutcome::ok(format!("v{i}"), v.clone()))
            .collect()
    }

    #[test]
    fn majority_tolerates_minority_wrong() {
        let adj = MajorityVoter::new();
        assert_eq!(adj.adjudicate(&oks(&[1, 1, 2])).into_output(), Some(1));
        assert_eq!(
            adj.adjudicate(&oks(&[3, 1, 3, 2, 3])).into_output(),
            Some(3)
        );
    }

    #[test]
    fn majority_rejects_split() {
        let adj = MajorityVoter::new();
        assert_eq!(
            adj.adjudicate(&oks(&[1, 2, 3])),
            Verdict::rejected(RejectionReason::NoQuorum)
        );
    }

    #[test]
    fn majority_counts_failures_against() {
        use crate::outcome::VariantFailure;
        let adj = MajorityVoter::new();
        // 2 agree out of 5 total (2 failed, 1 dissenting): no strict majority.
        let mut outcomes = oks(&[7, 7, 8]);
        outcomes.push(VariantOutcome::failed("v3", VariantFailure::Timeout));
        outcomes.push(VariantOutcome::failed("v4", VariantFailure::Omission));
        assert_eq!(
            adj.adjudicate(&outcomes),
            Verdict::rejected(RejectionReason::NoQuorum)
        );
        // 3 agree out of 5: majority despite failures.
        let mut outcomes = oks(&[7, 7, 7]);
        outcomes.push(VariantOutcome::failed("v3", VariantFailure::Timeout));
        outcomes.push(VariantOutcome::failed("v4", VariantFailure::Omission));
        assert_eq!(adj.adjudicate(&outcomes).into_output(), Some(7));
    }

    #[test]
    fn plurality_accepts_leading_class() {
        let adj = PluralityVoter::new();
        assert_eq!(adj.adjudicate(&oks(&[5, 6, 5, 7])).into_output(), Some(5));
    }

    #[test]
    fn plurality_rejects_ties() {
        let adj = PluralityVoter::new();
        assert_eq!(
            adj.adjudicate(&oks(&[5, 6, 5, 6])),
            Verdict::rejected(RejectionReason::Disagreement)
        );
    }

    #[test]
    fn quorum_voter_threshold() {
        let adj = QuorumVoter::new(3);
        assert_eq!(adj.adjudicate(&oks(&[1, 1, 1, 2])).into_output(), Some(1));
        assert_eq!(
            adj.adjudicate(&oks(&[1, 1, 2, 2])),
            Verdict::rejected(RejectionReason::NoQuorum)
        );
    }

    #[test]
    #[should_panic(expected = "quorum must be at least 1")]
    fn zero_quorum_panics() {
        let _ = QuorumVoter::new(0);
    }

    #[test]
    fn unanimity_detects_any_divergence() {
        let adj = UnanimityVoter::new();
        assert_eq!(adj.adjudicate(&oks(&[9, 9, 9])).into_output(), Some(9));
        assert_eq!(
            adj.adjudicate(&oks(&[9, 9, 8])),
            Verdict::rejected(RejectionReason::Disagreement)
        );
    }

    #[test]
    fn unanimity_rejects_on_any_failure() {
        use crate::outcome::VariantFailure;
        let adj = UnanimityVoter::new();
        let mut outcomes = oks(&[9, 9]);
        outcomes.push(VariantOutcome::failed("v2", VariantFailure::crash("x")));
        assert!(!adj.adjudicate(&outcomes).is_accepted());
    }

    #[test]
    fn median_voter_picks_middle() {
        let adj = MedianVoter::new();
        assert_eq!(
            adj.adjudicate(&oks(&[10, 1000, 12])).into_output(),
            Some(12)
        );
    }

    #[test]
    fn median_ignores_failures() {
        use crate::outcome::VariantFailure;
        let adj = MedianVoter::new();
        let mut outcomes = oks(&[5, 6]);
        outcomes.push(VariantOutcome::failed("v2", VariantFailure::Timeout));
        // successes sorted: [5, 6]; median index 1 -> 6
        assert_eq!(adj.adjudicate(&outcomes).into_output(), Some(6));
    }

    #[test]
    fn tolerance_voter_clusters() {
        let adj = ToleranceVoter::new(0.01, 2);
        let outcomes = oks(&[1.000, 1.005, 3.2]);
        let v = adj.adjudicate(&outcomes);
        assert!(v.is_accepted());
        let out = v.into_output().unwrap();
        assert!((out - 1.0).abs() < 0.01);
    }

    #[test]
    fn tolerance_voter_rejects_scatter() {
        let adj = ToleranceVoter::new(0.01, 2);
        let outcomes = oks(&[1.0, 2.0, 3.0]);
        assert!(!adj.adjudicate(&outcomes).is_accepted());
    }

    #[test]
    fn tolerance_voter_is_order_independent() {
        // Regression: greedy first-appearance clustering split this row
        // differently depending on which value arrived first — with 1.0
        // as representative, 1.01 fell outside epsilon; with 1.005 first,
        // all three clustered. Sort-then-window sees one chained cluster
        // regardless of order.
        let adj = ToleranceVoter::new(0.007, 3);
        let a = adj.adjudicate(&oks(&[1.0, 1.005, 1.01]));
        let b = adj.adjudicate(&oks(&[1.005, 1.0, 1.01]));
        let c = adj.adjudicate(&oks(&[1.01, 1.0, 1.005]));
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(a.into_output(), Some(1.005)); // upper-middle of the cluster
    }

    #[test]
    fn tolerance_voter_tie_prefers_smallest_cluster_values() {
        // Two clusters of two; the leftmost (smaller values) wins.
        let adj = ToleranceVoter::new(0.01, 2);
        let v = adj.adjudicate(&oks(&[5.0, 5.005, 9.0, 9.005]));
        assert_eq!(v.into_output(), Some(5.005));
    }

    #[test]
    fn tolerance_voter_treats_non_finite_as_failed() {
        use crate::outcome::VariantFailure;
        // Mirrors trimmed_mean_ignores_nan_and_failures: non-finite
        // outputs vote like crashes in both inexact voters.
        let adj = ToleranceVoter::new(0.01, 2);
        let mut outcomes = oks(&[2.0, 2.005, f64::NAN, f64::INFINITY]);
        outcomes.push(VariantOutcome::failed("v4", VariantFailure::Timeout));
        let v = adj.adjudicate(&outcomes);
        match v {
            Verdict::Accepted {
                output,
                support,
                dissent,
            } => {
                assert_eq!(output, 2.005);
                assert_eq!(support, 2);
                assert_eq!(dissent, 3); // NaN + inf + timeout all dissent
            }
            Verdict::Rejected { .. } => panic!("expected acceptance"),
        }
        // All-non-finite rows reject like all-failed rows.
        let junk = oks(&[f64::NAN, f64::NEG_INFINITY]);
        assert_eq!(
            adj.adjudicate(&junk),
            Verdict::rejected(RejectionReason::AllFailed)
        );
    }

    #[test]
    fn tolerance_voter_incremental_adapter_agrees() {
        // ToleranceVoter keeps the default BatchIncremental front-end; the
        // streamed verdict must equal the batch one.
        let adj = ToleranceVoter::new(0.01, 2);
        let outcomes = oks(&[1.000, 1.005, 3.2]);
        let mut inc = adj.begin_incremental(outcomes.len());
        for outcome in &outcomes {
            let _ = inc.feed(outcome);
        }
        assert_eq!(inc.finish(&outcomes), adj.adjudicate(&outcomes));
    }

    #[test]
    fn median_even_count_picks_upper_middle() {
        let adj = MedianVoter::new();
        // Sorted successes [3, 5, 8, 9]: index 4/2 = 2 -> 8.
        assert_eq!(adj.adjudicate(&oks(&[9, 3, 8, 5])).into_output(), Some(8));
    }

    #[test]
    fn median_dissent_lumps_failures_with_disagreement() {
        use crate::outcome::VariantFailure;
        // Verdict::dissent is documented as "contradicting the output
        // (including detectable failures)": a crashed variant and a
        // deviating variant are indistinguishable in the counts, and the
        // caller keeps the outcomes slice if it needs the split.
        let adj = MedianVoter::new();
        let mut outcomes = oks(&[7, 7, 9]);
        outcomes.push(VariantOutcome::failed("v3", VariantFailure::crash("x")));
        match adj.adjudicate(&outcomes) {
            Verdict::Accepted {
                output,
                support,
                dissent,
            } => {
                assert_eq!(output, 7);
                assert_eq!(support, 2);
                assert_eq!(dissent, 2); // one deviating + one crashed
            }
            Verdict::Rejected { .. } => panic!("expected acceptance"),
        }
    }

    #[test]
    fn all_voters_reject_empty_and_all_failed() {
        use crate::outcome::VariantFailure;
        let empty: Vec<VariantOutcome<i32>> = vec![];
        let failed: Vec<VariantOutcome<i32>> = vec![
            VariantOutcome::failed("a", VariantFailure::Timeout),
            VariantOutcome::failed("b", VariantFailure::Omission),
        ];
        let voters: Vec<Box<dyn Adjudicator<i32>>> = vec![
            Box::new(MajorityVoter::new()),
            Box::new(PluralityVoter::new()),
            Box::new(QuorumVoter::new(1)),
            Box::new(UnanimityVoter::new()),
            Box::new(MedianVoter::new()),
        ];
        for voter in &voters {
            assert!(!voter.adjudicate(&empty).is_accepted(), "{}", voter.name());
            assert!(!voter.adjudicate(&failed).is_accepted(), "{}", voter.name());
        }
    }

    #[test]
    fn trimmed_mean_discards_outliers() {
        let adj = TrimmedMeanVoter::new(1);
        let outcomes = oks(&[10.0, 10.2, 9.8, 1e9, -1e9]);
        let v = adj.adjudicate(&outcomes).into_output().unwrap();
        assert!((v - 10.0).abs() < 0.2, "got {v}");
    }

    #[test]
    fn trimmed_mean_needs_enough_survivors() {
        let adj = TrimmedMeanVoter::new(2);
        // 4 outputs, trimming 2 from each end leaves nothing.
        assert!(!adj.adjudicate(&oks(&[1.0, 2.0, 3.0, 4.0])).is_accepted());
        assert!(adj
            .adjudicate(&oks(&[1.0, 2.0, 3.0, 4.0, 5.0]))
            .is_accepted());
    }

    #[test]
    fn trimmed_mean_ignores_nan_and_failures() {
        use crate::outcome::VariantFailure;
        let adj = TrimmedMeanVoter::new(0);
        let mut outcomes = oks(&[2.0, 4.0, f64::NAN]);
        outcomes.push(VariantOutcome::failed("v3", VariantFailure::Timeout));
        let v = adj.adjudicate(&outcomes).into_output().unwrap();
        assert!((v - 3.0).abs() < 1e-9, "got {v}");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The 2k+1 rule: with k wrong results out of 2k+1, majority
            /// voting always recovers the correct output.
            #[test]
            fn majority_tolerates_k_of_2k_plus_1(k in 0usize..6, wrong in 0i64..100) {
                let n = 2 * k + 1;
                let correct = 1000i64;
                let mut values = vec![correct; n - k];
                values.extend(std::iter::repeat_n(wrong + 2000, k));
                let adj = MajorityVoter::new();
                let verdict = adj.adjudicate(&oks(&values));
                prop_assert_eq!(verdict.into_output(), Some(correct));
            }

            /// Voting is invariant under permutation of the outcomes.
            #[test]
            fn majority_is_permutation_invariant(values in proptest::collection::vec(0i64..4, 1..9), seed in 0u64..1000) {
                let adj = MajorityVoter::new();
                let original = adj.adjudicate(&oks(&values)).into_output();
                let mut shuffled = values.clone();
                let mut rng = crate::rng::SplitMix64::new(seed);
                rng.shuffle(&mut shuffled);
                let permuted = adj.adjudicate(&oks(&shuffled)).into_output();
                prop_assert_eq!(original, permuted);
            }

            /// An accepted majority output always has support > n/2.
            #[test]
            fn majority_support_exceeds_half(values in proptest::collection::vec(0i64..4, 1..9)) {
                let adj = MajorityVoter::new();
                if let Verdict::Accepted { support, dissent, .. } = adj.adjudicate(&oks(&values)) {
                    prop_assert!(support > (support + dissent) / 2);
                    prop_assert_eq!(support + dissent, values.len());
                }
            }

            /// The tolerance voter's verdict depends only on the multiset
            /// of outputs, never on arrival order (the bug the
            /// sort-then-window clustering fixed).
            #[test]
            fn tolerance_is_permutation_invariant(
                values in proptest::collection::vec(0u8..40, 1..9),
                seed in 0u64..1000,
                epsilon_steps in 0u8..4,
            ) {
                // Values on a coarse grid (steps of 0.05) with epsilon on
                // the same grid, so clusters form and split often.
                let to_f = |v: &u8| f64::from(*v) * 0.05;
                let values: Vec<f64> = values.iter().map(to_f).collect();
                let epsilon = f64::from(epsilon_steps) * 0.05 + 0.001;
                let adj = ToleranceVoter::new(epsilon, 2);
                let original = adj.adjudicate(&oks(&values));
                let mut shuffled = values.clone();
                let mut rng = crate::rng::SplitMix64::new(seed);
                rng.shuffle(&mut shuffled);
                let permuted = adj.adjudicate(&oks(&shuffled));
                prop_assert_eq!(original, permuted);
            }

            /// The median voter's output is always one of the successful
            /// outputs and at least as many values are <= it as >= it.
            #[test]
            fn median_is_a_real_output(values in proptest::collection::vec(-1000i64..1000, 1..15)) {
                let adj = MedianVoter::new();
                let out = adj.adjudicate(&oks(&values)).into_output().unwrap();
                prop_assert!(values.contains(&out));
                let le = values.iter().filter(|&&v| v <= out).count();
                let ge = values.iter().filter(|&&v| v >= out).count();
                prop_assert!(le * 2 >= values.len());
                prop_assert!(ge * 2 >= values.len());
            }
        }
    }
}
