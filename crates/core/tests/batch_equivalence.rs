//! Equivalence suite for the exact-equality voting rules.
//!
//! `batch::vote_row` is the one implementation behind the four exact
//! voters' `adjudicate` (and so behind the trait's
//! `adjudicate_batch_row` default); the SoA column kernels
//! (`OutcomeColumns::adjudicate`) compute the same rules over packed
//! chunks, and the voters' streaming front-ends decide early. This suite
//! pins all of them to the scalar reference voter kept here as the
//! oracle — the textbook "general voting algorithm": greedy agreement
//! classes in first-appearance order, the largest class wins — on fixed
//! rows and on arbitrary outcome streams: same winner, same
//! support/dissent counts, same rejection reason, for every rule.

use proptest::prelude::*;
use redundancy_core::adjudicator::voting::{
    MajorityVoter, PluralityVoter, QuorumVoter, UnanimityVoter,
};
use redundancy_core::adjudicator::{batch, Adjudicator, Decision, OutcomeColumns, VoteRule};
use redundancy_core::outcome::{RejectionReason, VariantFailure, VariantOutcome, Verdict};

/// Groups successful outputs into agreement classes by `==`, returning
/// `(representative_index, count)` per class, ordered by first appearance.
fn agreement_classes<O: PartialEq>(outcomes: &[VariantOutcome<O>]) -> Vec<(usize, usize)> {
    let mut classes: Vec<(usize, usize)> = Vec::new();
    for (i, outcome) in outcomes.iter().enumerate() {
        let Ok(output) = &outcome.result else {
            continue;
        };
        let mut matched = false;
        for (rep, count) in classes.iter_mut() {
            let rep_output = outcomes[*rep]
                .output()
                .expect("representatives are successful outcomes");
            if rep_output == output {
                *count += 1;
                matched = true;
                break;
            }
        }
        if !matched {
            classes.push((i, 1));
        }
    }
    classes
}

/// The reference threshold voter: the largest agreement class wins with
/// at least `threshold` members; with `tie_is_rejection`, a tie between
/// leading classes rejects.
fn vote<O: Clone + PartialEq>(
    outcomes: &[VariantOutcome<O>],
    threshold: usize,
    tie_is_rejection: bool,
) -> Verdict<O> {
    if outcomes.is_empty() {
        return Verdict::rejected(RejectionReason::NoOutcomes);
    }
    let classes = agreement_classes(outcomes);
    if classes.is_empty() {
        return Verdict::rejected(RejectionReason::AllFailed);
    }
    let (best_rep, best_count) = classes
        .iter()
        .copied()
        .max_by_key(|&(_, count)| count)
        .expect("non-empty classes");
    if best_count < threshold {
        return Verdict::rejected(RejectionReason::NoQuorum);
    }
    if tie_is_rejection {
        let ties = classes.iter().filter(|&&(_, c)| c == best_count).count();
        if ties > 1 {
            return Verdict::rejected(RejectionReason::Disagreement);
        }
    }
    let output = outcomes[best_rep]
        .output()
        .expect("representative is successful")
        .clone();
    Verdict::accepted(output, best_count, outcomes.len() - best_count)
}

/// The reference unanimity voter: every outcome succeeded and all
/// outputs agree.
fn unanimity<O: Clone + PartialEq>(outcomes: &[VariantOutcome<O>]) -> Verdict<O> {
    if outcomes.is_empty() {
        return Verdict::rejected(RejectionReason::NoOutcomes);
    }
    if outcomes.iter().any(|o| !o.is_ok()) {
        return Verdict::rejected(RejectionReason::AllFailed);
    }
    let first = outcomes[0].output().expect("checked success");
    if outcomes
        .iter()
        .skip(1)
        .all(|o| o.output().expect("checked success") == first)
    {
        Verdict::accepted(first.clone(), outcomes.len(), 0)
    } else {
        Verdict::rejected(RejectionReason::Disagreement)
    }
}

/// The oracle's verdict for `rule`.
fn oracle<O: Clone + PartialEq>(rule: VoteRule, outcomes: &[VariantOutcome<O>]) -> Verdict<O> {
    match rule {
        VoteRule::Majority => vote(outcomes, outcomes.len() / 2 + 1, false),
        VoteRule::Plurality => vote(outcomes, 1, true),
        VoteRule::Quorum(quorum) => vote(outcomes, quorum, false),
        VoteRule::Unanimity => unanimity(outcomes),
    }
}

/// An arbitrary outcome stream: `Some(v)` succeeds with output `v`,
/// `None` fails detectably. Values are drawn from a small range so
/// agreement classes actually form, and rows are capped at the column
/// arity limit.
fn outcomes_strategy() -> impl Strategy<Value = Vec<VariantOutcome<i64>>> {
    proptest::collection::vec(proptest::option::of(0i64..4), 0..10).prop_map(row_to_outcomes)
}

fn row_to_outcomes(row: Vec<Option<i64>>) -> Vec<VariantOutcome<i64>> {
    row.into_iter()
        .enumerate()
        .map(|(i, v)| match v {
            Some(v) => VariantOutcome::ok(format!("v{i}"), v),
            None => VariantOutcome::failed(format!("v{i}"), VariantFailure::Timeout),
        })
        .collect()
}

fn oks(values: &[i64]) -> Vec<VariantOutcome<i64>> {
    row_to_outcomes(values.iter().copied().map(Some).collect())
}

fn voters() -> Vec<(VoteRule, Box<dyn Adjudicator<i64>>)> {
    vec![
        (VoteRule::Majority, Box::new(MajorityVoter::new())),
        (VoteRule::Plurality, Box::new(PluralityVoter::new())),
        (VoteRule::Quorum(2), Box::new(QuorumVoter::new(2))),
        (VoteRule::Unanimity, Box::new(UnanimityVoter::new())),
    ]
}

/// Pins one outcome row across every entry point of one voter.
fn check_row(
    rule: VoteRule,
    voter: &dyn Adjudicator<i64>,
    outcomes: &[VariantOutcome<i64>],
) -> Result<(), TestCaseError> {
    let expected = oracle(rule, outcomes);
    prop_assert_eq!(voter.vote_rule(), Some(rule));
    prop_assert_eq!(
        voter.adjudicate(outcomes),
        expected.clone(),
        "adjudicate diverged under {:?}",
        rule
    );
    prop_assert_eq!(
        voter.adjudicate_batch_row(outcomes),
        expected.clone(),
        "adjudicate_batch_row diverged under {:?}",
        rule
    );
    // Streaming front-end: feed everything, then finish.
    let mut inc = voter.begin_incremental(outcomes.len());
    let mut early = None;
    for outcome in outcomes {
        match inc.feed(outcome) {
            Decision::Undecided => {}
            Decision::Decided(v) => {
                early = Some(v);
                break;
            }
            Decision::Unreachable => {
                prop_assert!(!expected.is_accepted(), "unreachable but oracle accepted");
                return Ok(());
            }
        }
    }
    match early {
        Some(v) => {
            prop_assert_eq!(v.is_accepted(), expected.is_accepted());
            if v.is_accepted() {
                prop_assert_eq!(v.output(), expected.output());
            }
        }
        None => prop_assert_eq!(inc.finish(outcomes), expected),
    }
    Ok(())
}

#[test]
fn voters_match_the_oracle_on_fixed_rows() {
    let rows: Vec<Vec<VariantOutcome<i64>>> = vec![
        oks(&[1, 1, 2]),
        oks(&[1, 2, 3]),
        oks(&[5, 6, 5, 6]),
        oks(&[3, 1, 3, 2, 3]),
        oks(&[7]),
        vec![],
        row_to_outcomes(vec![None, None]),
        row_to_outcomes(vec![Some(7), Some(7), Some(8), None]),
    ];
    for outcomes in &rows {
        for (rule, voter) in &voters() {
            check_row(*rule, voter.as_ref(), outcomes).expect("voter matches the oracle");
        }
    }
}

#[test]
fn vote_row_handles_rows_wider_than_the_bitset() {
    let values: Vec<i64> = (0..100).map(|i| i % 3).collect();
    let outcomes = oks(&values);
    for rule in [VoteRule::Plurality, VoteRule::Majority, VoteRule::Unanimity] {
        assert_eq!(batch::vote_row(rule, &outcomes), oracle(rule, &outcomes));
    }
}

#[test]
fn columns_match_the_oracle_row_by_row() {
    // Mixed successes, failures, duplicates, all-failed rows.
    let rows: Vec<Vec<Option<i64>>> = vec![
        vec![Some(1), Some(1), Some(2)],
        vec![Some(1), Some(2), Some(3)],
        vec![None, None, None],
        vec![Some(5), None, Some(5)],
        vec![None, Some(7), None],
        vec![Some(2), Some(2), Some(2)],
    ];
    let mut columns: OutcomeColumns<i64> = OutcomeColumns::new(3);
    for row in &rows {
        columns.push_row(row);
    }
    for (rule, _) in &voters() {
        let verdicts = columns.adjudicate(*rule);
        for (row, verdict) in rows.iter().zip(&verdicts) {
            assert_eq!(
                verdict.to_verdict(&columns),
                oracle(*rule, &row_to_outcomes(row.clone())),
                "rule {rule:?}, row {row:?}"
            );
        }
    }
}

proptest! {
    /// Every voter entry point and the streaming front-end agree with
    /// the oracle on arbitrary streams.
    #[test]
    fn all_representations_agree(outcomes in outcomes_strategy()) {
        for (rule, voter) in &voters() {
            check_row(*rule, voter.as_ref(), &outcomes)?;
        }
    }

    /// The SoA column kernels reproduce the oracle's verdict row by row
    /// on arbitrary packed chunks.
    #[test]
    fn columns_agree_with_the_oracle(
        rows in proptest::collection::vec(
            proptest::collection::vec(proptest::option::of(0i64..4), 1..8),
            1..12,
        ),
        arity_pick in 1usize..8,
    ) {
        // Normalize every row to one arity (columns are rectangular).
        let arity = arity_pick.min(rows[0].len()).max(1);
        let rows: Vec<Vec<Option<i64>>> = rows
            .into_iter()
            .map(|mut r| {
                r.resize(arity, None);
                r
            })
            .collect();
        let mut columns: OutcomeColumns<i64> = OutcomeColumns::new(arity);
        for row in &rows {
            columns.push_row(row);
        }
        for (rule, _) in &voters() {
            let verdicts = columns.adjudicate(*rule);
            prop_assert_eq!(verdicts.len(), rows.len());
            for (row, verdict) in rows.iter().zip(&verdicts) {
                let outcomes = row_to_outcomes(row.clone());
                prop_assert_eq!(
                    verdict.to_verdict(&columns),
                    oracle(*rule, &outcomes),
                    "rule {:?}, row {:?}",
                    rule,
                    row
                );
            }
        }
    }

    /// `push_outcomes` packs exactly like `push_row` on the same data.
    #[test]
    fn push_outcomes_matches_push_row(row in proptest::collection::vec(proptest::option::of(0i64..4), 1..8)) {
        let outcomes = row_to_outcomes(row.clone());
        let mut by_row: OutcomeColumns<i64> = OutcomeColumns::new(row.len());
        by_row.push_row(&row);
        let mut by_outcomes: OutcomeColumns<i64> = OutcomeColumns::new(row.len());
        by_outcomes.push_outcomes(&outcomes);
        for (rule, _) in &voters() {
            prop_assert_eq!(by_row.adjudicate(*rule), by_outcomes.adjudicate(*rule));
        }
    }
}
