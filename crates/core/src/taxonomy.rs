//! The taxonomy of redundancy-based fault-handling mechanisms (paper §3).
//!
//! The paper classifies techniques along four dimensions, summarized in its
//! Table 1:
//!
//! | Dimension | Values |
//! |---|---|
//! | Intention | deliberate, opportunistic |
//! | Type | code, data, environment |
//! | Triggers and adjudicators | preventive (implicit), reactive-implicit, reactive-explicit |
//! | Faults addressed | development (Bohrbugs / Heisenbugs), interaction (malicious) |
//!
//! This module expresses those dimensions as Rust types, so that the
//! classification of every technique in the framework is machine-checkable
//! and Table 1 / Table 2 can be regenerated from the type system itself.

use std::fmt;

/// Whether redundancy was *deliberately designed into* the system or is
/// *latent* and exploited opportunistically (paper §3, "Intention").
///
/// ```
/// use redundancy_core::taxonomy::Intention;
/// assert_eq!(Intention::Deliberate.to_string(), "deliberate");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Intention {
    /// Redundancy added on purpose at design time (e.g. N-version
    /// programming, recovery blocks).
    Deliberate,
    /// Redundancy already latent in the system, exploited at runtime
    /// (e.g. automatic workarounds, micro-reboots).
    Opportunistic,
}

impl Intention {
    /// All values, in Table 1 order.
    pub const ALL: [Intention; 2] = [Intention::Deliberate, Intention::Opportunistic];
}

impl fmt::Display for Intention {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Intention::Deliberate => "deliberate",
            Intention::Opportunistic => "opportunistic",
        })
    }
}

/// The element of the execution that is replicated (paper §3, "Type").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RedundancyType {
    /// Multiple implementations of the same logical functionality.
    Code,
    /// Multiple representations of the same logical information.
    Data,
    /// Multiple execution environments (memory layout, schedule, process).
    Environment,
}

impl RedundancyType {
    /// All values, in Table 1 order.
    pub const ALL: [RedundancyType; 3] = [
        RedundancyType::Code,
        RedundancyType::Data,
        RedundancyType::Environment,
    ];
}

impl fmt::Display for RedundancyType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RedundancyType::Code => "code",
            RedundancyType::Data => "data",
            RedundancyType::Environment => "environment",
        })
    }
}

/// How the redundant mechanism is triggered and how its result is judged
/// (paper §3, "Triggers and adjudicators").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Adjudication {
    /// Acts before any failure is observed (implicit adjudicator), e.g.
    /// rejuvenation, preventive wrappers.
    Preventive,
    /// Reacts to failures revealed by the mechanism itself, e.g. a majority
    /// vote over parallel executions.
    ReactiveImplicit,
    /// Reacts to failures detected by an explicitly designed check, e.g. a
    /// recovery-block acceptance test.
    ReactiveExplicit,
    /// Reacts using either an implicit comparison or an explicit test
    /// depending on configuration (the paper's "expl./impl." rows).
    ReactiveMixed,
}

impl Adjudication {
    /// All values, in Table 1 order.
    pub const ALL: [Adjudication; 4] = [
        Adjudication::Preventive,
        Adjudication::ReactiveImplicit,
        Adjudication::ReactiveExplicit,
        Adjudication::ReactiveMixed,
    ];

    /// Whether the mechanism waits for a failure before acting.
    #[must_use]
    pub fn is_reactive(self) -> bool {
        !matches!(self, Adjudication::Preventive)
    }

    /// Whether an explicitly designed detector is required.
    #[must_use]
    pub fn requires_explicit_detector(self) -> bool {
        matches!(
            self,
            Adjudication::ReactiveExplicit | Adjudication::ReactiveMixed
        )
    }
}

impl fmt::Display for Adjudication {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Adjudication::Preventive => "preventive",
            Adjudication::ReactiveImplicit => "reactive implicit",
            Adjudication::ReactiveExplicit => "reactive explicit",
            Adjudication::ReactiveMixed => "reactive expl./impl.",
        })
    }
}

/// The classes of software fault the paper considers (§3, "Faults", after
/// Avizienis et al. and Grottke–Trivedi).
///
/// Physical (hardware) faults are out of scope, exactly as in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultClass {
    /// Development fault that manifests deterministically under well-defined
    /// conditions.
    Bohrbug,
    /// Development fault whose activation depends on transient, hard-to
    /// -reproduce conditions (scheduling, memory layout, load, aging).
    Heisenbug,
    /// Interaction fault introduced with malicious intent (attacks).
    Malicious,
}

impl FaultClass {
    /// All values, in Table 1 order.
    pub const ALL: [FaultClass; 3] = [
        FaultClass::Bohrbug,
        FaultClass::Heisenbug,
        FaultClass::Malicious,
    ];

    /// Whether this is a development fault (as opposed to an interaction
    /// fault) in Avizienis' terms.
    #[must_use]
    pub fn is_development(self) -> bool {
        matches!(self, FaultClass::Bohrbug | FaultClass::Heisenbug)
    }
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultClass::Bohrbug => "Bohrbugs",
            FaultClass::Heisenbug => "Heisenbugs",
            FaultClass::Malicious => "malicious",
        })
    }
}

/// A set of [`FaultClass`] values, used for the "Faults" column of Table 2.
///
/// ```
/// use redundancy_core::taxonomy::{FaultClass, FaultSet};
///
/// let dev = FaultSet::DEVELOPMENT;
/// assert!(dev.contains(FaultClass::Bohrbug));
/// assert!(dev.contains(FaultClass::Heisenbug));
/// assert!(!dev.contains(FaultClass::Malicious));
/// assert_eq!(dev.to_string(), "development");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct FaultSet {
    bits: u8,
}

impl FaultSet {
    /// The empty set.
    pub const EMPTY: FaultSet = FaultSet { bits: 0 };
    /// Only Bohrbugs.
    pub const BOHRBUGS: FaultSet = FaultSet::single(FaultClass::Bohrbug);
    /// Only Heisenbugs.
    pub const HEISENBUGS: FaultSet = FaultSet::single(FaultClass::Heisenbug);
    /// Only malicious interaction faults.
    pub const MALICIOUS: FaultSet = FaultSet::single(FaultClass::Malicious);
    /// Development faults: Bohrbugs and Heisenbugs (the paper writes just
    /// "development" for this set).
    pub const DEVELOPMENT: FaultSet = FaultSet {
        bits: FaultSet::BOHRBUGS.bits | FaultSet::HEISENBUGS.bits,
    };
    /// Every fault class.
    pub const ALL: FaultSet = FaultSet {
        bits: FaultSet::DEVELOPMENT.bits | FaultSet::MALICIOUS.bits,
    };

    const fn bit(class: FaultClass) -> u8 {
        match class {
            FaultClass::Bohrbug => 1,
            FaultClass::Heisenbug => 2,
            FaultClass::Malicious => 4,
        }
    }

    /// A set containing exactly one class.
    #[must_use]
    pub const fn single(class: FaultClass) -> FaultSet {
        FaultSet {
            bits: FaultSet::bit(class),
        }
    }

    /// Builds a set from an iterator of classes.
    #[must_use]
    pub fn from_classes<I: IntoIterator<Item = FaultClass>>(classes: I) -> FaultSet {
        let mut set = FaultSet::EMPTY;
        for c in classes {
            set = set.with(c);
        }
        set
    }

    /// Returns this set with `class` added.
    #[must_use]
    pub const fn with(self, class: FaultClass) -> FaultSet {
        FaultSet {
            bits: self.bits | FaultSet::bit(class),
        }
    }

    /// Returns the union of the two sets.
    #[must_use]
    pub const fn union(self, other: FaultSet) -> FaultSet {
        FaultSet {
            bits: self.bits | other.bits,
        }
    }

    /// Whether `class` is in the set.
    #[must_use]
    pub const fn contains(self, class: FaultClass) -> bool {
        self.bits & FaultSet::bit(class) != 0
    }

    /// Whether the set is empty.
    #[must_use]
    pub const fn is_empty(self) -> bool {
        self.bits == 0
    }

    /// Number of classes in the set.
    #[must_use]
    pub const fn len(self) -> usize {
        self.bits.count_ones() as usize
    }

    /// Iterates the classes in the set, in canonical order.
    pub fn iter(self) -> impl Iterator<Item = FaultClass> {
        FaultClass::ALL
            .into_iter()
            .filter(move |&c| self.contains(c))
    }
}

impl fmt::Display for FaultSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == FaultSet::EMPTY {
            return f.write_str("none");
        }
        if *self == FaultSet::DEVELOPMENT {
            return f.write_str("development");
        }
        if *self == FaultSet::ALL {
            return f.write_str("development, malicious");
        }
        let mut first = true;
        for class in self.iter() {
            if !first {
                f.write_str(", ")?;
            }
            write!(f, "{class}")?;
            first = false;
        }
        Ok(())
    }
}

impl FromIterator<FaultClass> for FaultSet {
    fn from_iter<T: IntoIterator<Item = FaultClass>>(iter: T) -> Self {
        FaultSet::from_classes(iter)
    }
}

/// The inter-component architectural patterns of the paper's Figure 1, plus
/// the intra-component case discussed in §2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ArchitecturalPattern {
    /// Figure 1(a): all alternatives run, an adjudicator merges the results.
    ParallelEvaluation,
    /// Figure 1(b): alternatives run in parallel, each validated by its own
    /// adjudicator; the first validated "acting" result wins.
    ParallelSelection,
    /// Figure 1(c): alternatives run one at a time; the adjudicator promotes
    /// the next alternative on failure.
    SequentialAlternatives,
    /// Redundancy confined within a single component (wrappers, robust data
    /// structures, automatic workarounds).
    IntraComponent,
}

impl ArchitecturalPattern {
    /// All values, in Figure 1 order.
    pub const ALL: [ArchitecturalPattern; 4] = [
        ArchitecturalPattern::ParallelEvaluation,
        ArchitecturalPattern::ParallelSelection,
        ArchitecturalPattern::SequentialAlternatives,
        ArchitecturalPattern::IntraComponent,
    ];
}

impl fmt::Display for ArchitecturalPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ArchitecturalPattern::ParallelEvaluation => "parallel evaluation",
            ArchitecturalPattern::ParallelSelection => "parallel selection",
            ArchitecturalPattern::SequentialAlternatives => "sequential alternatives",
            ArchitecturalPattern::IntraComponent => "intra-component",
        })
    }
}

/// A complete Table 2 row: the classification of one technique along all
/// four taxonomy dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Classification {
    /// Deliberate or opportunistic redundancy.
    pub intention: Intention,
    /// Code, data, or environment redundancy.
    pub redundancy: RedundancyType,
    /// Trigger/adjudicator discipline.
    pub adjudication: Adjudication,
    /// Fault classes the technique primarily addresses.
    pub faults: FaultSet,
}

impl Classification {
    /// Convenience constructor.
    #[must_use]
    pub const fn new(
        intention: Intention,
        redundancy: RedundancyType,
        adjudication: Adjudication,
        faults: FaultSet,
    ) -> Self {
        Self {
            intention,
            redundancy,
            adjudication,
            faults,
        }
    }
}

impl fmt::Display for Classification {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} / {} / {} / {}",
            self.intention, self.redundancy, self.adjudication, self.faults
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_set_membership() {
        let s = FaultSet::from_classes([FaultClass::Bohrbug, FaultClass::Malicious]);
        assert!(s.contains(FaultClass::Bohrbug));
        assert!(s.contains(FaultClass::Malicious));
        assert!(!s.contains(FaultClass::Heisenbug));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn fault_set_union_and_iter() {
        let s = FaultSet::BOHRBUGS.union(FaultSet::HEISENBUGS);
        assert_eq!(s, FaultSet::DEVELOPMENT);
        let classes: Vec<_> = s.iter().collect();
        assert_eq!(classes, vec![FaultClass::Bohrbug, FaultClass::Heisenbug]);
    }

    #[test]
    fn fault_set_display_matches_paper_vocabulary() {
        assert_eq!(FaultSet::DEVELOPMENT.to_string(), "development");
        assert_eq!(FaultSet::BOHRBUGS.to_string(), "Bohrbugs");
        assert_eq!(FaultSet::HEISENBUGS.to_string(), "Heisenbugs");
        assert_eq!(FaultSet::MALICIOUS.to_string(), "malicious");
        assert_eq!(
            FaultSet::BOHRBUGS.with(FaultClass::Malicious).to_string(),
            "Bohrbugs, malicious"
        );
        assert_eq!(FaultSet::EMPTY.to_string(), "none");
        assert_eq!(FaultSet::ALL.to_string(), "development, malicious");
    }

    #[test]
    fn fault_set_collect() {
        let s: FaultSet = FaultClass::ALL.into_iter().collect();
        assert_eq!(s, FaultSet::ALL);
    }

    #[test]
    fn development_classes() {
        assert!(FaultClass::Bohrbug.is_development());
        assert!(FaultClass::Heisenbug.is_development());
        assert!(!FaultClass::Malicious.is_development());
    }

    #[test]
    fn adjudication_predicates() {
        assert!(!Adjudication::Preventive.is_reactive());
        assert!(Adjudication::ReactiveImplicit.is_reactive());
        assert!(!Adjudication::ReactiveImplicit.requires_explicit_detector());
        assert!(Adjudication::ReactiveExplicit.requires_explicit_detector());
        assert!(Adjudication::ReactiveMixed.requires_explicit_detector());
    }

    #[test]
    fn display_strings_are_stable() {
        assert_eq!(RedundancyType::Environment.to_string(), "environment");
        assert_eq!(
            Adjudication::ReactiveMixed.to_string(),
            "reactive expl./impl."
        );
        assert_eq!(
            ArchitecturalPattern::SequentialAlternatives.to_string(),
            "sequential alternatives"
        );
    }

    #[test]
    fn classification_display() {
        let c = Classification::new(
            Intention::Deliberate,
            RedundancyType::Code,
            Adjudication::ReactiveImplicit,
            FaultSet::DEVELOPMENT,
        );
        assert_eq!(
            c.to_string(),
            "deliberate / code / reactive implicit / development"
        );
    }

    #[test]
    fn empty_set_reports_empty() {
        assert!(FaultSet::EMPTY.is_empty());
        assert!(!FaultSet::BOHRBUGS.is_empty());
        assert_eq!(FaultSet::EMPTY.len(), 0);
    }
}
