//! Core abstractions of the `redundancy` framework.
//!
//! This crate implements the conceptual skeleton of Carzaniga, Gorla and
//! Pezzè's *Handling Software Faults with Redundancy*: the taxonomy of
//! redundancy-based fault-handling mechanisms ([`taxonomy`]), the unit of
//! redundancy ([`variant::Variant`]), the components that judge redundant
//! results ([`adjudicator`]), and the three inter-component architectural
//! patterns of the paper's Figure 1 ([`patterns`]).
//!
//! Higher layers build on these: `redundancy-techniques` implements every
//! technique of the paper's Table 2 on top of these patterns, and
//! `redundancy-sim` measures them under injected faults.
//!
//! # Quick example: three-version programming
//!
//! ```
//! use redundancy_core::adjudicator::voting::MajorityVoter;
//! use redundancy_core::context::ExecContext;
//! use redundancy_core::patterns::ParallelEvaluation;
//! use redundancy_core::variant::pure_variant;
//!
//! // Three independently designed "versions", one of them faulty.
//! let nvp = ParallelEvaluation::new(MajorityVoter::new())
//!     .with_variant(pure_variant("team-a", 10, |x: &i64| x.pow(2)))
//!     .with_variant(pure_variant("team-b", 14, |x: &i64| x * *x))
//!     .with_variant(pure_variant("team-c", 9, |x: &i64| x * x + 1)); // bug
//!
//! let mut ctx = ExecContext::new(42);
//! let report = nvp.run(&12, &mut ctx);
//! assert_eq!(report.into_output(), Some(144)); // the fault is outvoted
//! ```

#![warn(missing_docs)]

pub mod adjudicator;
pub mod context;
pub mod cost;
pub mod outcome;
pub mod patterns;
pub mod rng;
pub mod taxonomy;
pub mod technique;
pub mod variant;

pub use adjudicator::Adjudicator;
pub use context::ExecContext;
pub use cost::Cost;
pub use outcome::{RejectionReason, VariantFailure, VariantOutcome, Verdict};
pub use patterns::{
    ExecutionMode, ParallelEvaluation, ParallelSelection, PatternReport, SequentialAlternatives,
};
pub use taxonomy::{
    Adjudication, ArchitecturalPattern, Classification, FaultClass, FaultSet, Intention,
    RedundancyType,
};
pub use technique::TechniqueEntry;
pub use variant::{BoxedVariant, FnVariant, Variant};

/// The observability substrate (re-exported so downstream crates can name
/// event types without a separate dependency edge).
pub use redundancy_obs as obs;
