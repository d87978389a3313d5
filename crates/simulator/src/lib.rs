//! The Monte-Carlo experiment harness of the `redundancy` framework.
//!
//! Every quantitative claim reproduced from the paper (experiments T2 and
//! E4–E16 in `EXPERIMENTS.md`) is measured here: a [`trial::Campaign`]
//! runs a seeded closure many times, classifies each run, and summarizes
//! the results with proper interval estimates ([`stats`]). Human-readable
//! tables come from [`table::Table`].
//!
//! With [`trial::Campaign::run_traced`] every trial additionally records
//! a structured execution trace; [`forensics`] reconstructs per-trial
//! stories (variant outcomes, adjudicator verdicts, costs) from the
//! recorded stream.
//!
//! Campaigns measuring eager decision policies aggregate the redundancy
//! they avoided paying for with [`early_exit::EarlyExitCounters`] (safe
//! to share across campaign workers) and quantify the saving with
//! [`early_exit::work_saved`].
//!
//! Campaign trials are independently seeded and therefore embarrassingly
//! parallel: [`trial::Campaign::execute`] shards them across the
//! persistent worker pool ([`pool`]) in chunks ([`parallel`]) while
//! producing bit-for-bit the same summary — and, for traced runs, the
//! same event stream — as the serial paths; a [`trial::RunSpec`] adds
//! tracing, checkpointed resumption ([`checkpoint`]) and injected harness
//! faults ([`chaos`]) to the same engine.
//!
//! A running campaign can be watched live: the engine's hot paths feed
//! lock-free telemetry shards (chunk claims, sampled trial durations,
//! merge stalls, checkpoint commit lag, chaos faults, pool panics), and
//! [`monitor::CampaignMonitor`] samples them in the background to drive
//! a stderr progress line plus Prometheus-text and JSONL export — the
//! campaign flight recorder. Monitoring never changes results:
//! summaries and traced streams are bit-identical with it on or off.

#![warn(missing_docs)]

pub mod chaos;
pub mod checkpoint;
pub mod early_exit;
pub mod forensics;
pub mod monitor;
pub mod parallel;
pub mod pool;
pub mod stats;
pub mod table;
pub mod trial;

pub use chaos::ChaosPlan;
pub use checkpoint::{CheckpointLog, CheckpointSpec, Resumed};
pub use early_exit::{work_saved, EarlyExitCounters, EarlyExitStats, WorkSaved};
pub use forensics::{split_trials, TrialTrace, VariantDisposition, VariantRecord, VerdictRecord};
pub use monitor::{CampaignMonitor, MonitorConfig};
pub use parallel::{
    available_jobs, chunk_size, parallel_indexed, parallel_indexed_chunked,
    parallel_indexed_chunked_hooked, parallel_tasks, parallel_tasks_lpt,
};
pub use pool::WorkerPool;
pub use stats::{mean_ci, wilson_interval, Estimate, Proportion};
pub use table::Table;
pub use trial::{Campaign, RunSpec, TrialOutcome, TrialSummary};
