//! The exact-equality voting rules and the row kernel that computes them.
//!
//! - [`VoteRule`] names the four exact-equality voting rules
//!   (majority / plurality / quorum / unanimity);
//! - [`vote_row`] is the zero-alloc row kernel behind
//!   [`Adjudicator::adjudicate`] of all four voters in
//!   [`voting`](crate::adjudicator::voting), and so the one
//!   implementation of every exact-equality rule.
//!
//! A scalar reference voter (greedy agreement classes, the textbook
//! "general voting algorithm") lives in the `batch_equivalence`
//! integration test as the oracle the kernel is pinned to.
//!
//! The inexact voters (median, tolerance, trimmed mean) never route here:
//! their agreement relations are not plain equality, so they keep their
//! scalar paths and return `None` from
//! [`Adjudicator::vote_rule`].
//!
//! [`Adjudicator::adjudicate`]: crate::adjudicator::Adjudicator::adjudicate
//! [`Adjudicator::vote_rule`]: crate::adjudicator::Adjudicator::vote_rule

use crate::outcome::{RejectionReason, VariantOutcome, Verdict};

/// Widest row [`vote_row`] votes on without allocating.
pub const MAX_ARITY: usize = 64;

/// The four exact-equality voting rules, detached from their voter types
/// so [`vote_row`] can compute any of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VoteRule {
    /// Strict majority: more than half of *all* outcomes agree.
    Majority,
    /// Leading agreement class wins; ties are rejected.
    Plurality,
    /// At least this many outcomes agree.
    Quorum(usize),
    /// Every outcome succeeded and all outputs agree.
    Unanimity,
}

impl VoteRule {
    /// The agreement count an output needs under this rule when `arity`
    /// outcomes vote.
    #[must_use]
    pub fn threshold(self, arity: usize) -> usize {
        match self {
            VoteRule::Majority => arity / 2 + 1,
            VoteRule::Plurality => 1,
            VoteRule::Quorum(quorum) => quorum,
            VoteRule::Unanimity => arity.max(1),
        }
    }

    /// Whether a tie between leading agreement classes rejects the vote.
    #[must_use]
    pub fn tie_rejects(self) -> bool {
        matches!(self, VoteRule::Plurality)
    }
}

/// Zero-alloc row kernel: computes `rule` over one outcome row with the
/// outputs' `==` as the agreement relation, using stack buffers for
/// every arity up to [`MAX_ARITY`] (larger rows spill to one heap
/// buffer).
///
/// The semantics every exact voter inherits, pinned against the scalar
/// reference voter by the `batch_equivalence` proptests:
/// - agreement classes form in first-appearance order, represented by
///   their first member;
/// - on support ties the *last* leading class wins (`max_by_key`'s
///   pick), except under plurality where ties reject;
/// - rejection precedence is `NoOutcomes` → `AllFailed` → `NoQuorum` →
///   `Disagreement`, and `dissent = len - support` counts detectable
///   failures as dissent;
/// - unanimity rejects any failed outcome as `AllFailed` before
///   comparing outputs.
pub fn vote_row<O: Clone + PartialEq>(
    rule: VoteRule,
    outcomes: &[VariantOutcome<O>],
) -> Verdict<O> {
    let n = outcomes.len();
    if n == 0 {
        return Verdict::rejected(RejectionReason::NoOutcomes);
    }
    if matches!(rule, VoteRule::Unanimity) {
        // Unanimity short-circuits on any failure (labelled `AllFailed`)
        // before comparing outputs.
        if outcomes.iter().any(|o| !o.is_ok()) {
            return Verdict::rejected(RejectionReason::AllFailed);
        }
        let first = outcomes[0].output().expect("checked success");
        return if outcomes
            .iter()
            .skip(1)
            .all(|o| o.output().expect("checked success") == first)
        {
            Verdict::accepted(first.clone(), n, 0)
        } else {
            Verdict::rejected(RejectionReason::Disagreement)
        };
    }
    // (representative slot, count) per agreement class, in
    // first-appearance order.
    let mut stack_buf = [(0u32, 0u32); MAX_ARITY];
    let mut heap_buf: Vec<(u32, u32)>;
    let classes: &mut [(u32, u32)] = if n <= MAX_ARITY {
        &mut stack_buf
    } else {
        heap_buf = vec![(0, 0); n];
        &mut heap_buf
    };
    let mut n_classes = 0usize;
    for (i, outcome) in outcomes.iter().enumerate() {
        let Ok(output) = &outcome.result else {
            continue;
        };
        let mut matched = false;
        for (rep, count) in classes[..n_classes].iter_mut() {
            let rep_output = outcomes[*rep as usize]
                .output()
                .expect("representatives are successful outcomes");
            if rep_output == output {
                *count += 1;
                matched = true;
                break;
            }
        }
        if !matched {
            classes[n_classes] = (i as u32, 1);
            n_classes += 1;
        }
    }
    if n_classes == 0 {
        return Verdict::rejected(RejectionReason::AllFailed);
    }
    // `>=` keeps the later class on ties: first-appearance order makes
    // this exactly `max_by_key`'s last-maximum pick.
    let mut best = 0usize;
    let mut best_count = 0u32;
    for (c, &(_, count)) in classes[..n_classes].iter().enumerate() {
        if count >= best_count {
            best = c;
            best_count = count;
        }
    }
    if (best_count as usize) < rule.threshold(n) {
        return Verdict::rejected(RejectionReason::NoQuorum);
    }
    if rule.tie_rejects()
        && classes[..n_classes]
            .iter()
            .filter(|&&(_, c)| c == best_count)
            .count()
            > 1
    {
        return Verdict::rejected(RejectionReason::Disagreement);
    }
    let (rep, _) = classes[best];
    let output = outcomes[rep as usize]
        .output()
        .expect("representative is successful")
        .clone();
    Verdict::accepted(output, best_count as usize, n - best_count as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_thresholds_match_voters() {
        assert_eq!(VoteRule::Majority.threshold(3), 2);
        assert_eq!(VoteRule::Majority.threshold(4), 3);
        assert_eq!(VoteRule::Plurality.threshold(9), 1);
        assert_eq!(VoteRule::Quorum(2).threshold(5), 2);
        assert_eq!(VoteRule::Unanimity.threshold(3), 3);
        assert!(VoteRule::Plurality.tie_rejects());
        assert!(!VoteRule::Majority.tie_rejects());
    }
}
