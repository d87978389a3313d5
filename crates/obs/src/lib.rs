//! # redundancy-obs — structured tracing, metrics and trial forensics
//!
//! Observability for the redundancy framework: every layer of the stack
//! (the core pattern engines, the 17 technique modules, the Monte-Carlo
//! simulator) emits structured [`Event`]s describing what happened —
//! variant executions and their failures, adjudicator verdicts and
//! rejection reasons, fuel consumption, checkpoints and rollbacks,
//! rejuvenations, reboots, service rebinds, GP generations — and this
//! crate provides the places those events go.
//!
//! ## Design
//!
//! - **Zero cost when disabled.** Instrumented code holds an
//!   `Option<ObsHandle>`; with no handle attached the per-event cost is
//!   one branch. Attaching a disabled observer (the default
//!   [`NoopObserver`] reports `enabled() == false`) short-circuits the
//!   same way: event payloads are built inside closures that only run
//!   when a consuming observer is attached.
//! - **Dependency-free base crate.** This crate sits *below*
//!   `redundancy-core` in the workspace graph so every layer can emit.
//!   Domain enums are carried as `&'static str` labels
//!   (`VariantFailure::kind()`, `RejectionReason::kind()`).
//! - **Bounded capture.** [`RingBufferObserver`] keeps the most recent N
//!   events and counts what it dropped; exporters tolerate truncation.
//! - **Sharded capture.** Parallel campaigns record each trial into its
//!   own [`CollectorObserver`] shard; [`merge_shards`] stitches the
//!   shards back together in trial order, renumbering span ids so the
//!   merged stream is bit-for-bit identical to a serial recording.
//! - **Lock-free telemetry.** The [`telemetry`] module keeps per-thread
//!   shards of relaxed atomic counters and latency histograms, gated on
//!   one process-wide flag and aggregated only on demand — the data
//!   plane of the simulator's campaign flight recorder. [`prometheus`]
//!   renders snapshots in Prometheus text exposition format (and
//!   validates them back).
//!
//! ## Worked example
//!
//! ```
//! use std::sync::Arc;
//! use redundancy_obs::{
//!     CostSnapshot, ObsHandle, Point, RingBufferObserver, SpanKind, SpanStatus, TraceSummary,
//! };
//!
//! let ring = RingBufferObserver::shared(1024);
//! let mut obs = ObsHandle::new(ring.clone());
//!
//! let technique = obs.begin_span(0, || SpanKind::Technique { name: "n-version" });
//! obs.emit(30, || Point::Verdict {
//!     accepted: true,
//!     support: 2,
//!     dissent: 1,
//!     rejection: None,
//! });
//! obs.end_span(
//!     technique,
//!     30,
//!     SpanStatus::Accepted { support: 2, dissent: 1 },
//!     CostSnapshot { virtual_ns: 30, work_units: 9, invocations: 3, design_cost: 3.0 },
//! );
//!
//! let summary = TraceSummary::from_events(&ring.events());
//! assert_eq!(summary.accepted, 1);
//! assert_eq!(summary.total_cost.virtual_ns, 30);
//! ```

#![warn(missing_docs)]

mod event;
mod export;
pub mod intern;
mod metrics;
mod observer;
pub mod prometheus;
mod shard;
pub mod telemetry;

pub use event::{CostSnapshot, Event, EventKind, Point, SpanId, SpanKind, SpanStatus, ROOT_SPAN};
#[cfg(feature = "serde")]
pub use export::{
    event_from_json, event_to_json, from_jsonl, to_jsonl, write_event_json, ParseError,
};
pub use export::{render_span_tree, summary, TraceSummary};
pub use intern::Symbol;
pub use metrics::{
    Histogram, MetricKey, MetricsObserver, MetricsRegistry, FUEL_BUCKETS, TICK_BUCKETS,
};
pub use observer::{
    FanoutObserver, NoopObserver, ObsHandle, Observer, RingBufferObserver, SpanToken,
};
pub use shard::{
    forward_renumbered, forward_renumbered_drain, merge_shards, renumber_in_place,
    with_worker_arena, with_worker_shard, CollectorObserver, ShardPool, StreamingMerger,
    WorkerArena,
};
pub use telemetry::{Telemetry, TelemetryShard, TelemetrySnapshot};
