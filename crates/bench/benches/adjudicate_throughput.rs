//! Adjudication throughput: branchless SoA column kernels vs the
//! single-row voter kernel (host-time).
//!
//! The headline family is `adjudicate/columns_majority_n3`: majority
//! vote over pre-packed [`OutcomeColumns`] at arity 3 — the TMR shape —
//! with verdicts written into a reused buffer via
//! [`OutcomeColumns::adjudicate_into`], so the hot loop is zero-alloc.
//! The acceptance bar from the batch-adjudication work is ≥ 100 M
//! outcome-votes/sec on one core for this family: each pass adjudicates
//! `ROWS` rows × 3 votes, so the bar translates to a median of at most
//! `ROWS * 3 / 100e6` seconds per pass (~123 µs at `ROWS = 4096`).
//!
//! Companions:
//!
//! - `columns_majority_n7`, `columns_plurality_n3`,
//!   `columns_quorum2_n3`, `columns_unanimity_n3`: the other rules and
//!   a wider arity over the same columns.
//! - `pack_rows_n3`: the cost of interning + packing rows into columns,
//!   measured separately so the vote kernels above stay pure.
//! - `vote_row_majority_n3`: the single-row zero-alloc kernel behind
//!   `MajorityVoter::adjudicate` over the same rows — the per-trial
//!   path the pattern engines take, and the baseline the column kernels
//!   are measured against.
//!
//! The column kernel is asserted verdict-identical to `MajorityVoter`
//! on the bench data before anything is timed. Run with
//! `CRITERION_JSON_OUT=BENCH_campaign.json` (see `make bench-campaign`)
//! to mirror the numbers into the shared JSON; the recorder merges by
//! label, so this binary and `campaign_throughput` coexist in one file.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use redundancy_core::adjudicator::voting::MajorityVoter;
use redundancy_core::adjudicator::{Adjudicator, OutcomeColumns, RowVerdict, VoteRule};
use redundancy_core::outcome::{VariantFailure, VariantOutcome};

/// Rows per adjudication pass. One pass at arity 3 is `ROWS * 3`
/// outcome-votes; the ≥ 100 M votes/sec bar is ~123 µs per pass.
const ROWS: usize = 4096;
const SEED: u64 = 0xad00_2008;
/// One slot in ~8 fails; survivors draw from a small value set so
/// agreement classes actually form (and occasionally disagree).
const FAIL_ONE_IN: u64 = 8;
const DISTINCT_VALUES: u64 = 3;

/// SplitMix64 — deterministic bench data, no RNG dependency.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic campaign's worth of outcome rows: mostly-agreeing
/// ensembles with seeded failures and occasional silent deviations.
fn rows(arity: usize) -> Vec<Vec<Option<u64>>> {
    (0..ROWS)
        .map(|i| {
            (0..arity)
                .map(|slot| {
                    let draw = mix(SEED ^ (i as u64) << 8 ^ slot as u64);
                    if draw % FAIL_ONE_IN == 0 {
                        None
                    } else {
                        Some(draw % DISTINCT_VALUES)
                    }
                })
                .collect()
        })
        .collect()
}

fn row_to_outcomes(row: &[Option<u64>]) -> Vec<VariantOutcome<u64>> {
    row.iter()
        .enumerate()
        .map(|(i, v)| match v {
            Some(v) => VariantOutcome::ok(format!("v{i}"), *v),
            None => VariantOutcome::failed(format!("v{i}"), VariantFailure::Timeout),
        })
        .collect()
}

fn pack(rows: &[Vec<Option<u64>>], arity: usize) -> OutcomeColumns<u64> {
    let mut columns = OutcomeColumns::with_row_capacity(arity, rows.len());
    for row in rows {
        columns.push_row(row);
    }
    columns
}

fn bench_adjudicate(c: &mut Criterion) {
    let rows3 = rows(3);
    let rows7 = rows(7);
    let columns3 = pack(&rows3, 3);
    let columns7 = pack(&rows7, 7);
    let aos3: Vec<Vec<VariantOutcome<u64>>> = rows3.iter().map(|r| row_to_outcomes(r)).collect();
    let majority = MajorityVoter::new();

    // Guard the equivalence contract on the bench data before timing:
    // the column kernel must reproduce the voter's verdict exactly.
    let verdicts = columns3.adjudicate(VoteRule::Majority);
    for (verdict, outcomes) in verdicts.iter().zip(&aos3) {
        assert_eq!(
            verdict.to_verdict(&columns3),
            majority.adjudicate(outcomes),
            "column kernel diverged from MajorityVoter on bench data"
        );
    }

    let mut group = c.benchmark_group("adjudicate");

    // Headline: majority over pre-packed columns, reused verdict buffer.
    // votes/sec = ROWS * arity / seconds-per-pass.
    let mut out: Vec<RowVerdict> = Vec::with_capacity(ROWS);
    group.bench_function(BenchmarkId::new("columns_majority_n3", ROWS), |b| {
        b.iter(|| {
            columns3.adjudicate_into(VoteRule::Majority, &mut out);
            std::hint::black_box(out.len())
        });
    });
    group.bench_function(BenchmarkId::new("columns_majority_n7", ROWS), |b| {
        b.iter(|| {
            columns7.adjudicate_into(VoteRule::Majority, &mut out);
            std::hint::black_box(out.len())
        });
    });
    group.bench_function(BenchmarkId::new("columns_plurality_n3", ROWS), |b| {
        b.iter(|| {
            columns3.adjudicate_into(VoteRule::Plurality, &mut out);
            std::hint::black_box(out.len())
        });
    });
    group.bench_function(BenchmarkId::new("columns_quorum2_n3", ROWS), |b| {
        b.iter(|| {
            columns3.adjudicate_into(VoteRule::Quorum(2), &mut out);
            std::hint::black_box(out.len())
        });
    });
    group.bench_function(BenchmarkId::new("columns_unanimity_n3", ROWS), |b| {
        b.iter(|| {
            columns3.adjudicate_into(VoteRule::Unanimity, &mut out);
            std::hint::black_box(out.len())
        });
    });

    // Packing cost: interning + bitset assembly, kept out of the vote
    // kernels above. Clears and refills one reused column set per pass.
    let mut packer: OutcomeColumns<u64> = OutcomeColumns::with_row_capacity(3, ROWS);
    group.bench_function(BenchmarkId::new("pack_rows_n3", ROWS), |b| {
        b.iter(|| {
            packer.clear();
            for row in &rows3 {
                packer.push_row(row);
            }
            std::hint::black_box(packer.rows())
        });
    });

    // Single-row kernel through the voter: the engines' per-trial path.
    group.bench_function(BenchmarkId::new("vote_row_majority_n3", ROWS), |b| {
        b.iter(|| {
            let mut accepted = 0usize;
            for outcomes in &aos3 {
                accepted += usize::from(majority.adjudicate(outcomes).is_accepted());
            }
            std::hint::black_box(accepted)
        });
    });

    group.finish();
}

criterion_group!(benches, bench_adjudicate);
criterion_main!(benches);
