//! The repository benchmark: five workloads over the campaign engine and
//! the service runtime, host-time end-to-end metrics from untraced runs,
//! and a per-layer breakdown from a separate traced run. See
//! `WORKLOADS.md` beside this crate for what each workload loads and
//! why.

pub mod harness;
pub mod metrics;
pub mod probe;
pub mod refs;
pub mod stats;
pub mod workload;
pub mod wrap;

use std::path::PathBuf;

/// Counts allocations during the traced run's instrumented calls; a
/// relaxed load and a branch per allocation otherwise.
#[global_allocator]
static ALLOCATOR: probe::CountingAlloc = probe::CountingAlloc;

/// The benchmark's directory (holding `references.tsv`).
#[must_use]
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Where runs write checkpoint and span files: `.bench_work` at the
/// root of the checkout.
#[must_use]
pub fn work_dir() -> PathBuf {
    bench_dir().join("..").join(".bench_work")
}
