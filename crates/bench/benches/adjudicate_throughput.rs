//! Adjudication throughput of the single-row voter kernel (host-time).
//!
//! `adjudicate/vote_row_majority_n3` times `MajorityVoter::adjudicate` —
//! the zero-alloc `batch::vote_row` kernel, the per-trial path the
//! pattern engines take — over `ROWS` deterministic outcome rows of
//! arity 3, the TMR shape. Each pass is `ROWS * 3` outcome-votes.
//!
//! Run with `CRITERION_JSON_OUT=BENCH_campaign.json` (see `make
//! bench-campaign`) to mirror the numbers into the shared JSON; the
//! recorder merges by label, so this binary and `campaign_throughput`
//! coexist in one file.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use redundancy_core::adjudicator::voting::MajorityVoter;
use redundancy_core::adjudicator::Adjudicator;
use redundancy_core::outcome::{VariantFailure, VariantOutcome};

/// Rows per adjudication pass.
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

/// A deterministic campaign's worth of arity-3 outcome rows:
/// mostly-agreeing ensembles with seeded failures and occasional silent
/// deviations.
fn rows() -> Vec<Vec<VariantOutcome<u64>>> {
    (0..ROWS)
        .map(|i| {
            (0..3u64)
                .map(|slot| {
                    let draw = mix(SEED ^ (i as u64) << 8 ^ slot);
                    if draw.is_multiple_of(FAIL_ONE_IN) {
                        VariantOutcome::failed(format!("v{slot}"), VariantFailure::Timeout)
                    } else {
                        VariantOutcome::ok(format!("v{slot}"), draw % DISTINCT_VALUES)
                    }
                })
                .collect()
        })
        .collect()
}

fn bench_adjudicate(c: &mut Criterion) {
    let rows = rows();
    let majority = MajorityVoter::new();
    let mut group = c.benchmark_group("adjudicate");
    group.bench_function(BenchmarkId::new("vote_row_majority_n3", ROWS), |b| {
        b.iter(|| {
            let mut accepted = 0usize;
            for outcomes in &rows {
                accepted += usize::from(majority.adjudicate(outcomes).is_accepted());
            }
            std::hint::black_box(accepted)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_adjudicate);
criterion_main!(benches);
