//! Data diversity for security (paper §4.2; Nguyen-Tuong, Evans, Knight
//! et al. 2008).
//!
//! N-variant *data* systems store the same logical value under N
//! different encodings (here: XOR masks and an additive bias), with the
//! property that identical concrete bit patterns decode to *different*
//! values in different variants. An attacker who overwrites the stored
//! representation with a chosen concrete value (a data-corruption attack
//! cannot choose per-variant payloads — it writes the same bytes
//! everywhere) therefore produces decoded values that disagree, and the
//! implicit comparison detects the attack.
//!
//! Classification (Table 2): deliberate / data / reactive-implicit /
//! malicious.

use redundancy_core::patterns::DecisionPolicy;
use redundancy_core::rng::SplitMix64;
use redundancy_core::taxonomy::{
    Adjudication, ArchitecturalPattern, Classification, FaultSet, Intention, RedundancyType,
};
use redundancy_core::technique::TechniqueEntry;

/// Table 2 row for data diversity for security.
pub const ENTRY: TechniqueEntry = TechniqueEntry {
    name: "Data diversity for security",
    classification: Classification::new(
        Intention::Deliberate,
        RedundancyType::Data,
        Adjudication::ReactiveImplicit,
        FaultSet::MALICIOUS,
    ),
    patterns: &[ArchitecturalPattern::ParallelEvaluation],
    citations: &["Nguyen-Tuong 2008", "Cox 2006"],
};

/// The error reported when variant decodings disagree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AttackDetected {
    /// Number of variants that disagreed with the first.
    pub disagreeing: usize,
}

impl std::fmt::Display for AttackDetected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "data corruption attack detected: {} variant(s) disagree",
            self.disagreeing
        )
    }
}

impl std::error::Error for AttackDetected {}

/// One storage variant: an XOR mask plus an additive bias. Chosen so that
/// no two variants use the same transformation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Encoding {
    mask: u64,
    bias: u64,
}

impl Encoding {
    fn encode(self, value: u64) -> u64 {
        (value ^ self.mask).wrapping_add(self.bias)
    }

    fn decode(self, stored: u64) -> u64 {
        stored.wrapping_sub(self.bias) ^ self.mask
    }
}

/// A memory cell stored under N diverse encodings.
///
/// # Examples
///
/// ```
/// use redundancy_techniques::nvariant_data::NVariantCell;
///
/// let mut cell = NVariantCell::new(3, 42);
/// cell.write(7);
/// assert_eq!(cell.read(), Ok(7));
///
/// // A data-corruption attack overwrites all stored copies with the
/// // same concrete bit pattern — and is detected on the next read.
/// cell.attack_overwrite(0xdead_beef);
/// assert!(cell.read().is_err());
/// ```
#[derive(Debug, Clone)]
pub struct NVariantCell {
    variants: Vec<(Encoding, u64)>,
    obs: Option<redundancy_core::obs::ObsHandle>,
    policy: DecisionPolicy,
}

impl PartialEq for NVariantCell {
    fn eq(&self, other: &Self) -> bool {
        // Value equality; an attached observer is not part of the cell.
        self.variants == other.variants
    }
}

impl Eq for NVariantCell {}

impl NVariantCell {
    /// Creates a cell with `n` diversely encoded variants, initialized to
    /// zero. Encodings are derived from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` — a single variant cannot detect anything.
    #[must_use]
    pub fn new(n: usize, seed: u64) -> Self {
        assert!(n >= 2, "need at least two variants to compare");
        let mut rng = SplitMix64::new(seed);
        let mut variants = Vec::with_capacity(n);
        // Variant 0 is the "natural" encoding, as in the paper's design
        // where one variant runs the original representation.
        variants.push((Encoding { mask: 0, bias: 0 }, 0));
        for _ in 1..n {
            let mask = rng.next_u64() | 1; // never the identity mask
            let bias = rng.next_u64();
            variants.push((Encoding { mask, bias }, Encoding { mask, bias }.encode(0)));
        }
        Self {
            variants,
            obs: None,
            policy: DecisionPolicy::Exhaustive,
        }
    }

    /// Sets the decision policy. Under [`DecisionPolicy::Eager`] a read
    /// short-circuits at the *first* disagreeing decoding — the attack
    /// verdict is already fixed — instead of decoding and comparing every
    /// remaining variant. Detection is unchanged; the reported
    /// `disagreeing` count then reflects only the comparisons actually
    /// performed.
    #[must_use]
    pub fn with_policy(mut self, policy: DecisionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The decision policy in effect.
    #[must_use]
    pub fn policy(&self) -> DecisionPolicy {
        self.policy
    }

    /// Attaches an observer; detected corruption emits a
    /// [`redundancy_core::obs::Point::ReplicaDivergence`] point.
    #[must_use]
    pub fn with_observer(
        mut self,
        observer: std::sync::Arc<dyn redundancy_core::obs::Observer>,
    ) -> Self {
        self.obs = Some(redundancy_core::obs::ObsHandle::new(observer));
        self
    }

    /// Number of variants.
    #[must_use]
    pub fn variants(&self) -> usize {
        self.variants.len()
    }

    /// Writes a value through the legitimate interface (each variant
    /// encodes it with its own transformation).
    pub fn write(&mut self, value: u64) {
        for (encoding, stored) in &mut self.variants {
            *stored = encoding.encode(value);
        }
    }

    /// Reads the value, comparing all variant decodings.
    ///
    /// # Errors
    ///
    /// Returns [`AttackDetected`] when decodings disagree.
    pub fn read(&self) -> Result<u64, AttackDetected> {
        let first = self.variants[0].0.decode(self.variants[0].1);
        let mut disagreement = self
            .variants
            .iter()
            .skip(1)
            .map(|(enc, stored)| enc.decode(*stored) != first);
        let disagreeing = match self.policy {
            DecisionPolicy::Exhaustive => disagreement.filter(|&d| d).count(),
            // The first disagreement fixes the verdict; later variants are
            // never decoded or compared.
            DecisionPolicy::Eager => usize::from(disagreement.any(|d| d)),
        };
        if disagreeing == 0 {
            Ok(first)
        } else {
            if let Some(obs) = &self.obs {
                obs.emit(0, || redundancy_core::obs::Point::ReplicaDivergence {
                    detail: redundancy_core::obs::Symbol::intern(&format!(
                        "{disagreeing} of {} encodings disagree",
                        self.variants.len()
                    )),
                });
            }
            Err(AttackDetected { disagreeing })
        }
    }

    /// Simulates a data-corruption attack: the attacker writes the same
    /// concrete bit pattern over every stored variant (it cannot tailor
    /// the payload per variant without knowing the secret encodings).
    pub fn attack_overwrite(&mut self, concrete: u64) {
        for (_, stored) in &mut self.variants {
            *stored = concrete;
        }
    }

    /// Simulates a partial attack corrupting only variant `idx`.
    pub fn attack_single(&mut self, idx: usize, concrete: u64) {
        if let Some((_, stored)) = self.variants.get_mut(idx) {
            *stored = concrete;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legitimate_roundtrip() {
        let mut cell = NVariantCell::new(3, 1);
        for v in [0u64, 1, 42, u64::MAX, 0xdead_beef] {
            cell.write(v);
            assert_eq!(cell.read(), Ok(v));
        }
    }

    #[test]
    fn uniform_overwrite_is_detected() {
        let mut cell = NVariantCell::new(2, 2);
        cell.write(10);
        cell.attack_overwrite(10); // even writing the "correct" raw value
        let err = cell.read().unwrap_err();
        assert!(err.disagreeing >= 1);
    }

    #[test]
    fn single_variant_corruption_is_detected() {
        let mut cell = NVariantCell::new(3, 3);
        cell.write(77);
        cell.attack_single(2, 0x41414141);
        assert!(cell.read().is_err());
    }

    #[test]
    fn detection_rate_is_total_over_many_attacks() {
        let mut rng = SplitMix64::new(9);
        let mut detected = 0;
        let trials = 2000;
        for t in 0..trials {
            let mut cell = NVariantCell::new(2, t);
            cell.write(rng.next_u64());
            cell.attack_overwrite(rng.next_u64());
            if cell.read().is_err() {
                detected += 1;
            }
        }
        // A uniform overwrite evades detection only if the same pattern
        // decodes identically under both encodings — probability ~2^-64.
        assert_eq!(detected, trials);
    }

    #[test]
    fn more_variants_more_disagreement() {
        let mut cell = NVariantCell::new(5, 4);
        cell.write(1);
        cell.attack_overwrite(999);
        let err = cell.read().unwrap_err();
        assert!(err.disagreeing >= 3, "disagreeing {}", err.disagreeing);
        assert_eq!(cell.variants(), 5);
    }

    #[test]
    fn eager_policy_detects_the_same_attacks() {
        let mut rng = SplitMix64::new(17);
        for t in 0..500 {
            let mut exhaustive = NVariantCell::new(4, t);
            let mut eager = NVariantCell::new(4, t).with_policy(DecisionPolicy::Eager);
            let value = rng.next_u64();
            exhaustive.write(value);
            eager.write(value);
            assert_eq!(exhaustive.read().is_err(), eager.read().is_err());
            let payload = rng.next_u64();
            exhaustive.attack_overwrite(payload);
            eager.attack_overwrite(payload);
            assert_eq!(exhaustive.read().is_err(), eager.read().is_err(), "t={t}");
        }
    }

    #[test]
    fn eager_read_short_circuits_the_count() {
        let mut cell = NVariantCell::new(5, 4).with_policy(DecisionPolicy::Eager);
        assert_eq!(cell.policy(), DecisionPolicy::Eager);
        cell.write(1);
        cell.attack_overwrite(999);
        // Only the comparison that fixed the verdict is reported.
        assert_eq!(cell.read().unwrap_err().disagreeing, 1);
    }

    #[test]
    #[should_panic(expected = "at least two variants")]
    fn single_variant_cell_panics() {
        let _ = NVariantCell::new(1, 0);
    }

    #[test]
    fn display_of_detection() {
        assert!(AttackDetected { disagreeing: 2 }
            .to_string()
            .contains("2 variant(s)"));
    }

    #[test]
    fn entry_matches_table2() {
        assert_eq!(ENTRY.classification.faults, FaultSet::MALICIOUS);
        assert_eq!(
            ENTRY.classification.adjudication,
            Adjudication::ReactiveImplicit
        );
        assert_eq!(ENTRY.name, "Data diversity for security");
    }
}
