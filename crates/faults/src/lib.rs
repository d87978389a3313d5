//! Fault injection for the `redundancy` framework.
//!
//! The paper's taxonomy classifies techniques by the *class of fault* they
//! address: deterministic development faults (**Bohrbugs**), transient
//! development faults (**Heisenbugs**, including aging-related ones), and
//! **malicious** interaction faults. This crate models all of them as
//! injectable [`FaultSpec`]s attached to otherwise-correct computations via
//! [`FaultyVariant`], so that every technique can be measured against every
//! fault class (experiment T2's empirical matrix).
//!
//! Design goals:
//!
//! - **Determinism** — activation decisions derive from the experiment
//!   seed, the input hash, the variant age and the environment signature,
//!   never from global state; a seed reproduces a whole campaign.
//! - **Faithful fault semantics** — a Bohrbug fails the *same inputs* every
//!   time; a Heisenbug fails a random subset of executions; an aging fault
//!   has a hazard rate growing with time since the last rejuvenation; a
//!   malicious fault fires exactly on attack-flagged inputs; an
//!   environment-sensitive fault fails a fixed fraction of inputs *per
//!   environment*, so perturbing the environment (RX) re-rolls which inputs
//!   are affected.
//!
//! [`FaultSpec`]: spec::FaultSpec
//! [`FaultyVariant`]: variant::FaultyVariant

#![warn(missing_docs)]

pub mod correlation;
pub mod plan;
pub mod spec;
pub mod variant;

pub use correlation::{correlated_versions, CorrelatedSuite};
pub use plan::FaultPlan;
pub use spec::{Activation, FaultEffect, FaultSpec, Probe};
pub use variant::{
    AgeHandle, EnvKnobs, EnvSignature, FaultyVariant, FaultyVariantBuilder, KnobSnapshot,
};
