//! A service-oriented substrate for the `redundancy` framework.
//!
//! Much of the recent work the paper surveys lives in the web-services
//! world: N-version programming over independent service implementations
//! (Looker's WS-FTM, Dobson's WS-BPEL voting), recovery blocks as BPEL
//! retry, and dynamic service substitution (Subramanian, Taher, Sadjadi,
//! Mosincat). Reproducing those techniques needs a service platform:
//! interfaces with multiple independently operated implementations,
//! discovery, interface similarity with converters, and a process engine
//! with sequences, parallel flows, retries and fault handlers.
//!
//! This crate provides an in-memory such platform:
//!
//! - [`value::Value`] — the dynamic payload type exchanged with services;
//! - [`provider`] — service implementations with reliability and latency
//!   profiles ([`provider::SimProvider`]);
//! - [`registry::ServiceRegistry`] — registration, discovery, and
//!   interface converters for near-matching services;
//! - [`process`] — a small BPEL-like engine: invoke, assign, sequence,
//!   parallel flow, retry, and scopes with fault handlers;
//! - [`recovery`] — Baresi/Pernici-style registries of failure-matching
//!   rules with recovery activities, protecting whole processes.
//!
//! On top of the per-call substrate sits the *request-level* runtime:
//!
//! - [`clock`] — a deterministic discrete-event queue on a virtual
//!   nanosecond clock (no wall time, no threads, seeded and
//!   reproducible);
//! - [`runtime`] — the event-loop service runtime holding thousands to
//!   millions of requests in flight, applying the paper's Figure-1
//!   patterns as request policies: parallel selection as *hedged
//!   requests* (cancel on first acceptable response) and sequential
//!   alternatives as *failover with deadline budgets*, behind admission
//!   control and a bounded backpressure queue;
//! - [`arrival`] — open-loop arrival processes (Poisson, bursty
//!   on/off, replayed traces) precomputed from order-free per-id RNG
//!   streams;
//! - [`breaker`] — per-provider circuit breakers (Closed/Open/HalfOpen
//!   over a windowed failure + slow-call profile, virtual-time
//!   cooldowns) feeding the runtime's admission and attempt routing;
//! - [`shard`] — the scale-out layer: one workload split across N
//!   per-shard event loops on the campaign worker pool, merged back
//!   into a single canonical ledger whose digest is bit-identical at
//!   any shard or job count.

#![warn(missing_docs)]

pub mod arrival;
pub mod breaker;
pub mod clock;
pub mod process;
pub mod provider;
pub mod recovery;
pub mod registry;
pub mod runtime;
pub mod shard;
pub mod value;

pub use arrival::ArrivalProcess;
pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use clock::EventQueue;
pub use process::{Activity, Engine, Expr, ProcessError, Vars};
pub use provider::{PlannedInvoke, Provider, ServiceError, SimProvider, SimProviderBuilder};
pub use recovery::{Backoff, FailureMatch, RecoveredRun, RecoveryRegistry, RecoveryRule};
pub use registry::{Converter, InterfaceId, ServiceRegistry};
pub use runtime::{
    PlannedProvider, RequestOutcome, RequestPolicy, RequestRecord, RuntimeConfig, RuntimeReport,
    ServiceRuntime, Workload,
};
pub use shard::ShardedRuntime;
pub use value::Value;
