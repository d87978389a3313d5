//! # redundancy-obs — structured tracing, telemetry and trial forensics
//!
//! Observability for the redundancy framework: every layer of the stack
//! (the core pattern engines, the 17 technique modules, the Monte-Carlo
//! simulator) emits structured [`Event`]s describing what happened —
//! variant executions and their failures, adjudicator verdicts and
//! rejection reasons, fuel consumption, checkpoints and rollbacks,
//! rejuvenations, service rebinds, re-expressions, workarounds — and
//! this crate provides the places those events go.
//!
//! ## Design
//!
//! - **Zero cost when disabled.** Instrumented code holds an
//!   `Option<Trace>`; with no trace attached the per-event cost is one
//!   branch, and event payloads are built inside closures that only run
//!   when a trace is attached. A disabled observer (the default
//!   [`NoopObserver`] reports `enabled() == false`) is never attached.
//! - **One recorder.** A traced execution context owns its [`Trace`]:
//!   recording an event is a `Vec` push, built in place (the recording
//!   methods are `#[inline]`, so callers in other crates construct the
//!   event straight in the buffer), and a forked context gets a
//!   recycled trace of its own, touching no shared state. Two rules
//!   follow. *A forked traced context must be joined* into its parent,
//!   after its last event and before the parent records again; a debug
//!   build panics when a child holding events is dropped unjoined. And
//!   since children that ran on other threads are joined in fork order,
//!   *a `Threaded` pattern records the same stream as a `Sequential`
//!   one*, apart from which stragglers an early verdict cancels.
//! - **Whole units, not events.** An [`Observer`] receives events in
//!   batches. A root trace attached to an [`ObsHandle`] hands it each
//!   finished unit — everything recorded from when the trace leaves its
//!   root span until it returns there, or one point emitted at the root
//!   — and the handle numbers the unit's span ids from its shared
//!   allocator and delivers it as one [`Observer::record_batch`]. A unit
//!   that a panic unwinds through is dropped, never delivered.
//! - **Dependency-free base crate.** This crate sits *below*
//!   `redundancy-core` in the workspace graph so every layer can emit.
//!   Domain enums are carried as `&'static str` labels
//!   (`VariantFailure::kind()`, `RejectionReason::kind()`).
//! - **Bounded capture.** [`RingBufferObserver`] keeps the most recent N
//!   events and counts what it dropped; exporters tolerate truncation.
//! - **Sharded capture.** Parallel campaigns record each worker's trials
//!   into a buffering [`Trace`] recycled across them, and hand it over a
//!   run of consecutive trials at a time; [`StreamingMerger`] stitches
//!   the runs back together in trial order, renumbering span ids so the
//!   merged stream is bit-for-bit identical to a serial recording
//!   ([`merge_shards`] is the batch form).
//! - **Lock-free telemetry.** The [`telemetry`] module keeps per-thread
//!   shards of relaxed atomic counters and latency histograms, gated on
//!   one process-wide flag and aggregated only on demand — the data
//!   plane of the simulator's campaign flight recorder. [`prometheus`]
//!   renders snapshots in Prometheus text exposition format (and
//!   validates them back).
//!
//! ## Worked example
//!
//! Instrumented code records through an execution context
//! (`redundancy_core::context::ExecContext`): attach an observer, and a
//! pattern run on that context reaches it as one unit, delivered whole
//! when the run's pattern span closes.
//!
//! ```
//! use redundancy_core::adjudicator::voting::MajorityVoter;
//! use redundancy_core::context::ExecContext;
//! use redundancy_core::patterns::ParallelEvaluation;
//! use redundancy_core::variant::pure_variant;
//! use redundancy_obs::{RingBufferObserver, TraceSummary};
//!
//! let mut nvp = ParallelEvaluation::new(MajorityVoter::new());
//! nvp.push_variant(pure_variant("a", 3, |x: &u64| x * 2));
//! nvp.push_variant(pure_variant("b", 3, |x: &u64| x * 2));
//! nvp.push_variant(pure_variant("c", 3, |x: &u64| x + 1)); // a faulty version
//!
//! let ring = RingBufferObserver::shared(1024);
//! let mut ctx = ExecContext::new(7).with_observer(ring.clone());
//! assert_eq!(nvp.run(&21, &mut ctx).into_output(), Some(42));
//!
//! let summary = TraceSummary::from_events(&ring.events());
//! assert_eq!(summary.accepted, 1, "the vote accepted 2 of 3");
//! assert_eq!(summary.spans_closed, 4, "the pattern span and three variants");
//! assert_eq!(summary.total_cost.work_units, 9);
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
mod trace;

pub use event::{CostSnapshot, Event, EventKind, Point, SpanId, SpanKind, SpanStatus, ROOT_SPAN};
pub use export::{
    event_from_json, event_to_json, from_jsonl, render_span_tree, summary, to_jsonl, validate_json,
    write_event_json, ParseError, TraceSummary,
};
pub use intern::Symbol;
pub use metrics::{Histogram, TICK_BUCKETS};
pub use observer::{FanoutObserver, NoopObserver, ObsHandle, Observer, RingBufferObserver};
pub use shard::{
    forward_renumbered, merge_shards, renumber_in_place, CollectorObserver, StreamingMerger,
};
pub use telemetry::{Telemetry, TelemetryShard, TelemetrySnapshot};
pub use trace::{SpanToken, Trace};
