//! Overhead of the observability layer on the pattern hot path.
//!
//! Three configurations of the same `ParallelEvaluation` run:
//!
//! - `bare` — no observer attached (the context's `Option<Trace>` is
//!   `None`);
//! - `noop` — a [`NoopObserver`] attached: a disabled observer is not
//!   attached at all, so this must cost what `bare` costs. The
//!   acceptance bar is ≤ ~1% overhead vs. `bare`;
//! - `ring` — a [`RingBufferObserver`] actually recording, as the upper
//!   reference point for what full capture costs.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use redundancy_core::adjudicator::voting::MajorityVoter;
use redundancy_core::context::ExecContext;
use redundancy_core::obs::{NoopObserver, RingBufferObserver};
use redundancy_core::patterns::ParallelEvaluation;
use redundancy_core::variant::pure_variant;

fn nvp(n: usize) -> ParallelEvaluation<u64, u64> {
    let mut p = ParallelEvaluation::new(MajorityVoter::new());
    for i in 0..n {
        p.push_variant(pure_variant(&format!("v{i}"), 10, |x: &u64| x * 2));
    }
    p
}

fn bench_obs_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_overhead");
    let p = nvp(3);

    group.bench_function("parallel_evaluation/bare", |b| {
        let mut ctx = ExecContext::new(1);
        b.iter(|| p.run(std::hint::black_box(&7), &mut ctx).into_output());
    });

    group.bench_function("parallel_evaluation/noop", |b| {
        let mut ctx = ExecContext::new(1).with_observer(Arc::new(NoopObserver));
        b.iter(|| p.run(std::hint::black_box(&7), &mut ctx).into_output());
    });

    group.bench_function("parallel_evaluation/ring", |b| {
        let ring = RingBufferObserver::shared(1 << 12);
        let mut ctx = ExecContext::new(1).with_observer(ring);
        b.iter(|| p.run(std::hint::black_box(&7), &mut ctx).into_output());
    });

    group.finish();
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);
