//! Branchless batch adjudication: vote like hardware TMR.
//!
//! A Monte-Carlo campaign adjudicates the *same shaped* row millions of
//! times — and hardware TMR voters decide in a single cycle. This module
//! holds the one implementation of every exact-equality voting rule:
//!
//! - [`VoteRule`] names the four exact-equality voting rules
//!   (majority / plurality / quorum / unanimity) so engines can route
//!   them without knowing the concrete voter type;
//! - [`vote_row`] is the zero-alloc row kernel behind
//!   [`Adjudicator::adjudicate`] of all four voters in
//!   [`voting`](crate::adjudicator::voting);
//! - [`OutcomeColumns`] is the SoA chunk layout: equal outputs are
//!   interned once per chunk, outcomes become `u32` class IDs plus a
//!   per-row success bitset, and [`OutcomeColumns::adjudicate_into`]
//!   computes whole chunks of verdicts branchlessly with per-slot
//!   agreement bitmasks and popcounts.
//!
//! A scalar reference voter (greedy agreement classes, the textbook
//! "general voting algorithm") lives in the `batch_equivalence`
//! integration test as the oracle both kernels are pinned to.
//!
//! `std::simd` is not used: it is still unstable on the toolchain this
//! workspace pins, and the scalar u64 bitmask kernels already decide a
//! majority-of-3 row in a few nanoseconds (see the
//! `adjudicate_throughput` bench family).
//!
//! The inexact voters (median, tolerance, trimmed mean) never route here:
//! their agreement relations are not plain equality, so they keep their
//! scalar paths and return `None` from
//! [`Adjudicator::vote_rule`].
//!
//! [`Adjudicator::adjudicate`]: crate::adjudicator::Adjudicator::adjudicate
//! [`Adjudicator::vote_rule`]: crate::adjudicator::Adjudicator::vote_rule

use std::collections::HashMap;
use std::hash::Hash;

use crate::outcome::{RejectionReason, VariantOutcome, Verdict};

/// Maximum number of variants per row the SoA kernels handle: one slot
/// per bit of the `u64` success bitset.
pub const MAX_ARITY: usize = 64;

/// The four exact-equality voting rules, detached from their voter types
/// so batch kernels can compute any of them over packed columns.
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

/// Class ID marking a failed slot in [`OutcomeColumns`]. Never collides
/// with a real ID (the interner refuses to grow that far) and never
/// reaches the kernels, which mask failed slots through the success
/// bitset.
const FAILED_SLOT: u32 = u32::MAX;

/// Campaign outcomes in structure-of-arrays layout: one `u32` class ID
/// per slot (equal outputs intern to equal IDs) and one success bitset
/// per row.
///
/// Packing is the only part that touches `O`; adjudication over the
/// packed columns is pure integer work — pairwise ID-equality bitmasks,
/// popcounts for support, a branch-free winner scan — and allocates
/// nothing when driven through [`adjudicate_into`] with a reused output
/// vector. Rows share one interner, so a chunk of trials whose variants
/// mostly agree stores each distinct output once.
///
/// [`adjudicate_into`]: OutcomeColumns::adjudicate_into
#[derive(Debug, Clone)]
pub struct OutcomeColumns<O> {
    arity: usize,
    class: Vec<u32>,
    ok: Vec<u64>,
    values: Vec<O>,
    intern: HashMap<O, u32>,
}

impl<O: Clone + Eq + Hash> OutcomeColumns<O> {
    /// Creates empty columns for rows of `arity` outcomes each.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= arity <= MAX_ARITY`.
    #[must_use]
    pub fn new(arity: usize) -> Self {
        assert!(
            (1..=MAX_ARITY).contains(&arity),
            "arity must be in 1..={MAX_ARITY}, got {arity}"
        );
        Self {
            arity,
            class: Vec::new(),
            ok: Vec::new(),
            values: Vec::new(),
            intern: HashMap::new(),
        }
    }

    /// Creates columns with capacity for `rows` rows.
    #[must_use]
    pub fn with_row_capacity(arity: usize, rows: usize) -> Self {
        let mut cols = Self::new(arity);
        cols.class.reserve(rows * arity);
        cols.ok.reserve(rows);
        cols
    }

    /// Outcomes per row.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Rows packed so far.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.ok.len()
    }

    /// Whether no rows are packed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ok.is_empty()
    }

    /// Distinct output values interned so far.
    #[must_use]
    pub fn distinct_values(&self) -> usize {
        self.values.len()
    }

    /// The interned output for a class ID (as returned in
    /// [`RowDecision::Accepted`]).
    ///
    /// # Panics
    ///
    /// Panics if `class` was not produced by this chunk's interner.
    #[must_use]
    pub fn value(&self, class: u32) -> &O {
        &self.values[class as usize]
    }

    /// Drops all rows and interned values, keeping allocations for the
    /// next chunk.
    pub fn clear(&mut self) {
        self.class.clear();
        self.ok.clear();
        self.values.clear();
        self.intern.clear();
    }

    fn intern(&mut self, value: &O) -> u32 {
        if let Some(&id) = self.intern.get(value) {
            return id;
        }
        let id = u32::try_from(self.values.len()).expect("interner fits u32");
        assert!(id != FAILED_SLOT, "interner overflow");
        self.values.push(value.clone());
        self.intern.insert(value.clone(), id);
        id
    }

    /// Packs one row of per-slot results (`None` = detectable failure).
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.arity()`.
    pub fn push_row(&mut self, row: &[Option<O>]) {
        assert_eq!(row.len(), self.arity, "row arity mismatch");
        let mut ok = 0u64;
        for (slot, value) in row.iter().enumerate() {
            let id = match value {
                Some(v) => {
                    ok |= 1u64 << slot;
                    self.intern(v)
                }
                None => FAILED_SLOT,
            };
            self.class.push(id);
        }
        self.ok.push(ok);
    }

    /// Packs one row from variant outcomes (failures become failed
    /// slots).
    ///
    /// # Panics
    ///
    /// Panics if `outcomes.len() != self.arity()`.
    pub fn push_outcomes(&mut self, outcomes: &[VariantOutcome<O>]) {
        assert_eq!(outcomes.len(), self.arity, "row arity mismatch");
        let mut ok = 0u64;
        for (slot, outcome) in outcomes.iter().enumerate() {
            let id = match outcome.output() {
                Some(v) => {
                    ok |= 1u64 << slot;
                    self.intern(v)
                }
                None => FAILED_SLOT,
            };
            self.class.push(id);
        }
        self.ok.push(ok);
    }

    /// Adjudicates every packed row under `rule` into `out` (cleared
    /// first, reallocation-free once warm).
    ///
    /// Each row costs `arity²` ID compares folded into u64 bitmasks plus
    /// one popcount per slot — no branching on outcome data, no clones,
    /// no allocation.
    pub fn adjudicate_into(&self, rule: VoteRule, out: &mut Vec<RowVerdict>) {
        out.clear();
        out.reserve(self.rows());
        let n = self.arity;
        let full = u64::MAX >> (64 - n);
        let threshold = u32::try_from(rule.threshold(n).min(MAX_ARITY + 1)).expect("small");
        let tie_rejects = rule.tie_rejects();
        let unanimous = matches!(rule, VoteRule::Unanimity);
        for row in 0..self.rows() {
            let ids = &self.class[row * n..(row + 1) * n];
            let ok = self.ok[row];
            out.push(if unanimous {
                unanimity_row(ids, ok, full)
            } else {
                threshold_row(ids, ok, threshold, tie_rejects)
            });
        }
    }

    /// Convenience wrapper over [`adjudicate_into`] that allocates the
    /// output vector.
    ///
    /// [`adjudicate_into`]: OutcomeColumns::adjudicate_into
    #[must_use]
    pub fn adjudicate(&self, rule: VoteRule) -> Vec<RowVerdict> {
        let mut out = Vec::new();
        self.adjudicate_into(rule, &mut out);
        out
    }
}

/// One row's verdict in compact columnar form: no output clone — an
/// accepted row carries the interned class ID instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowVerdict {
    /// How the row decided.
    pub decision: RowDecision,
    /// Outcomes supporting the winning class (0 when rejected).
    pub support: u32,
    /// Outcomes dissenting or failed (the full row when rejected).
    pub dissent: u32,
}

/// The decision half of a [`RowVerdict`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowDecision {
    /// An output was accepted.
    Accepted {
        /// Interned class ID of the winning output (resolve with
        /// [`OutcomeColumns::value`]).
        class: u32,
        /// First row slot holding the winning output.
        rep_slot: u32,
    },
    /// No output was accepted.
    Rejected(RejectionReason),
}

impl RowVerdict {
    fn rejected(reason: RejectionReason, arity: u32) -> Self {
        Self {
            decision: RowDecision::Rejected(reason),
            support: 0,
            dissent: arity,
        }
    }

    /// Whether an output was accepted.
    #[must_use]
    pub fn is_accepted(&self) -> bool {
        matches!(self.decision, RowDecision::Accepted { .. })
    }

    /// Expands to a full [`Verdict`], cloning the winning output from the
    /// chunk's interner.
    #[must_use]
    pub fn to_verdict<O: Clone + Eq + Hash>(&self, columns: &OutcomeColumns<O>) -> Verdict<O> {
        match self.decision {
            RowDecision::Accepted { class, .. } => Verdict::accepted(
                columns.value(class).clone(),
                self.support as usize,
                self.dissent as usize,
            ),
            RowDecision::Rejected(reason) => Verdict::rejected(reason),
        }
    }
}

/// Majority/plurality/quorum over one packed row. Branch-free over the
/// outcome data: per-slot agreement masks, popcount support, and a
/// conditional-move winner scan whose `>=` reproduces the scalar voters'
/// last-maximum tie pick.
#[inline]
fn threshold_row(ids: &[u32], ok: u64, threshold: u32, tie_rejects: bool) -> RowVerdict {
    let n = ids.len();
    let arity = n as u32;
    if ok == 0 {
        return RowVerdict::rejected(RejectionReason::AllFailed, arity);
    }
    // supports[i] = class support if successful slot i is the first slot
    // of its agreement class, else 0.
    let mut supports = [0u32; MAX_ARITY];
    for (i, &id) in ids.iter().enumerate() {
        let mut mask = 0u64;
        for (j, &other) in ids.iter().enumerate() {
            mask |= u64::from(id == other) << j;
        }
        mask &= ok;
        let succeeded = (ok >> i) & 1;
        let is_rep = succeeded & u64::from(mask & ((1u64 << i) - 1) == 0);
        supports[i] = mask.count_ones() * (is_rep as u32);
    }
    // Representative slots ascend in class first-appearance order, so a
    // `>=` scan lands on the last leading class — the `max_by_key` pick.
    let mut rep_slot = 0usize;
    let mut best = 0u32;
    for (i, &support) in supports[..n].iter().enumerate() {
        let take = support != 0 && support >= best;
        best = if take { support } else { best };
        rep_slot = if take { i } else { rep_slot };
    }
    if best < threshold {
        return RowVerdict::rejected(RejectionReason::NoQuorum, arity);
    }
    if tie_rejects && supports[..n].iter().filter(|&&s| s == best).count() > 1 {
        return RowVerdict::rejected(RejectionReason::Disagreement, arity);
    }
    RowVerdict {
        decision: RowDecision::Accepted {
            class: ids[rep_slot],
            rep_slot: rep_slot as u32,
        },
        support: best,
        dissent: arity - best,
    }
}

/// Unanimity over one packed row: full success bitset, all IDs equal.
#[inline]
fn unanimity_row(ids: &[u32], ok: u64, full: u64) -> RowVerdict {
    let arity = ids.len() as u32;
    if ok != full {
        return RowVerdict::rejected(RejectionReason::AllFailed, arity);
    }
    let first = ids[0];
    let mut diverged = 0u32;
    for &id in ids {
        diverged |= u32::from(id != first);
    }
    if diverged != 0 {
        return RowVerdict::rejected(RejectionReason::Disagreement, arity);
    }
    RowVerdict {
        decision: RowDecision::Accepted {
            class: first,
            rep_slot: 0,
        },
        support: arity,
        dissent: 0,
    }
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

    #[test]
    fn columns_intern_equal_outputs_once() {
        let mut cols: OutcomeColumns<i64> = OutcomeColumns::new(3);
        cols.push_row(&[Some(4), Some(4), Some(9)]);
        cols.push_row(&[Some(9), None, Some(4)]);
        assert_eq!(cols.rows(), 2);
        assert_eq!(cols.distinct_values(), 2);
        let verdicts = cols.adjudicate(VoteRule::Majority);
        assert_eq!(verdicts[0].to_verdict(&cols).into_output(), Some(4));
        assert!(!verdicts[1].is_accepted());
    }

    #[test]
    fn columns_clear_keeps_capacity_but_drops_interned_values() {
        let mut cols: OutcomeColumns<i64> = OutcomeColumns::with_row_capacity(2, 8);
        cols.push_row(&[Some(1), Some(2)]);
        cols.clear();
        assert!(cols.is_empty());
        assert_eq!(cols.distinct_values(), 0);
        cols.push_row(&[Some(3), Some(3)]);
        let verdicts = cols.adjudicate(VoteRule::Unanimity);
        assert_eq!(verdicts[0].to_verdict(&cols).into_output(), Some(3));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn push_row_rejects_wrong_arity() {
        let mut cols: OutcomeColumns<i64> = OutcomeColumns::new(3);
        cols.push_row(&[Some(1)]);
    }

    #[test]
    #[should_panic(expected = "arity must be in")]
    fn zero_arity_columns_panic() {
        let _ = OutcomeColumns::<i64>::new(0);
    }
}
