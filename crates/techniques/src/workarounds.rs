//! Automatic workarounds (paper §5.1; Carzaniga, Gorla, Pezzè 2008).
//!
//! Complex systems offer the same functionality through *different
//! combinations of elementary operations* — intrinsic redundancy nobody
//! designed for fault tolerance. When an operation sequence fails, the
//! technique rewrites it into equivalent sequences (using declared
//! equivalences of the API) and executes them until one works, mimicking
//! — and exceeding — what a resourceful user would try by hand.
//!
//! Classification (Table 2): opportunistic / code / reactive-explicit /
//! development.

use std::collections::VecDeque;

use redundancy_core::taxonomy::{
    Adjudication, ArchitecturalPattern, Classification, FaultSet, Intention, RedundancyType,
};
use redundancy_core::technique::TechniqueEntry;

/// Table 2 row for automatic workarounds.
pub const ENTRY: TechniqueEntry = TechniqueEntry {
    name: "Automatic workarounds",
    classification: Classification::new(
        Intention::Opportunistic,
        RedundancyType::Code,
        Adjudication::ReactiveExplicit,
        FaultSet::DEVELOPMENT,
    ),
    patterns: &[ArchitecturalPattern::IntraComponent],
    citations: &["Carzaniga 2008 (SEAMS)", "Carzaniga 2008 (STTT)"],
};

/// A declared equivalence between two operation sequences: anywhere
/// `from` occurs, it may be replaced by `to` with the same intended
/// effect. Rules are applied in both directions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RewriteRule<Op> {
    /// The pattern to replace.
    pub from: Vec<Op>,
    /// The equivalent replacement.
    pub to: Vec<Op>,
}

impl<Op> RewriteRule<Op> {
    /// Creates a rule.
    #[must_use]
    pub fn new(from: Vec<Op>, to: Vec<Op>) -> Self {
        Self { from, to }
    }
}

/// The system under repair: executes an operation sequence, either
/// producing a state/output or failing.
pub trait OpSystem<Op> {
    /// The observable result of a sequence.
    type Output: PartialEq;

    /// Executes the sequence.
    ///
    /// # Errors
    ///
    /// Returns a message describing the failure.
    fn execute(&mut self, sequence: &[Op]) -> Result<Self::Output, String>;
}

/// A found workaround.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workaround<Op> {
    /// The equivalent sequence that succeeded.
    pub sequence: Vec<Op>,
    /// Number of candidate sequences executed before this one.
    pub attempts: usize,
}

/// The workaround engine: a set of rewrite rules over an operation
/// alphabet.
#[derive(Debug, Clone)]
pub struct WorkaroundEngine<Op> {
    rules: Vec<RewriteRule<Op>>,
    max_candidates: usize,
    max_depth: usize,
}

impl<Op: Clone + PartialEq> WorkaroundEngine<Op> {
    /// Creates an engine with the given equivalence rules.
    #[must_use]
    pub fn new(rules: Vec<RewriteRule<Op>>) -> Self {
        Self {
            rules,
            max_candidates: 200,
            max_depth: 4,
        }
    }

    /// Caps the number of candidate sequences generated (default 200).
    #[must_use]
    pub fn with_max_candidates(mut self, max: usize) -> Self {
        self.max_candidates = max;
        self
    }

    /// Caps the rewrite depth (default 4).
    #[must_use]
    pub fn with_max_depth(mut self, depth: usize) -> Self {
        self.max_depth = depth;
        self
    }

    /// Number of rules.
    #[must_use]
    pub fn rules(&self) -> usize {
        self.rules.len()
    }

    /// All sequences reachable from `seq` by applying one rule once (both
    /// directions, every position).
    fn neighbors(&self, seq: &[Op]) -> Vec<Vec<Op>> {
        let mut out = Vec::new();
        for rule in &self.rules {
            for (pattern, replacement) in [(&rule.from, &rule.to), (&rule.to, &rule.from)] {
                if pattern.is_empty() || pattern.len() > seq.len() {
                    continue;
                }
                for start in 0..=(seq.len() - pattern.len()) {
                    if seq[start..start + pattern.len()] == pattern[..] {
                        let mut candidate =
                            Vec::with_capacity(seq.len() - pattern.len() + replacement.len());
                        candidate.extend_from_slice(&seq[..start]);
                        candidate.extend_from_slice(replacement);
                        candidate.extend_from_slice(&seq[start + pattern.len()..]);
                        out.push(candidate);
                    }
                }
            }
        }
        out
    }

    /// Enumerates equivalent sequences breadth-first (closest rewrites
    /// first — the "likelihood of success" ordering of the paper is
    /// approximated by edit proximity), excluding `seq` itself.
    #[must_use]
    pub fn equivalent_sequences(&self, seq: &[Op]) -> Vec<Vec<Op>> {
        let mut seen: Vec<Vec<Op>> = vec![seq.to_vec()];
        let mut queue: VecDeque<(Vec<Op>, usize)> = VecDeque::new();
        let mut out = Vec::new();
        queue.push_back((seq.to_vec(), 0));
        while let Some((current, depth)) = queue.pop_front() {
            if depth >= self.max_depth || out.len() >= self.max_candidates {
                break;
            }
            for candidate in self.neighbors(&current) {
                if seen.contains(&candidate) {
                    continue;
                }
                seen.push(candidate.clone());
                out.push(candidate.clone());
                if out.len() >= self.max_candidates {
                    break;
                }
                queue.push_back((candidate, depth + 1));
            }
        }
        out
    }

    /// Reacts to a failure of `seq` on `system`: tries equivalent
    /// sequences until one succeeds.
    ///
    /// # Errors
    ///
    /// Returns the number of attempts when no equivalent sequence
    /// succeeds.
    pub fn find_workaround<S: OpSystem<Op>>(
        &self,
        system: &mut S,
        seq: &[Op],
    ) -> Result<Workaround<Op>, usize> {
        let mut attempts = 0;
        for candidate in self.equivalent_sequences(seq) {
            attempts += 1;
            if system.execute(&candidate).is_ok() {
                return Ok(Workaround {
                    sequence: candidate,
                    attempts: attempts - 1,
                });
            }
        }
        Err(attempts)
    }
}

/// A ready-made container API for tests and experiments: a sequence-built
/// integer container with genuinely redundant operations.
pub mod container {
    use super::{OpSystem, RewriteRule};

    /// Operations of the container API.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum Op {
        /// Append one element with value 1.
        Add,
        /// Append two elements with value 1 (bulk variant).
        AddPair,
        /// Remove the last element.
        RemoveLast,
        /// Clear the container.
        Clear,
        /// Reverse the container.
        Reverse,
        /// Reverse twice (identity, but a different code path).
        DoubleReverse,
    }

    /// The container, with an optional seeded fault: a chosen operation
    /// fails when the container length equals a trigger value (a classic
    /// state-dependent Bohrbug).
    #[derive(Debug, Clone, Default)]
    pub struct Container {
        items: Vec<u8>,
        fault_op: Option<Op>,
        fault_len: usize,
        pub(crate) executions: usize,
    }

    impl Container {
        /// A fault-free container.
        #[must_use]
        pub fn new() -> Self {
            Self::default()
        }

        /// Seeds a Bohrbug: `op` fails whenever the current length is
        /// `len`.
        #[must_use]
        pub fn with_fault(mut self, op: Op, len: usize) -> Self {
            self.fault_op = Some(op);
            self.fault_len = len;
            self
        }

        /// How many sequences this container executed (for experiments).
        #[must_use]
        pub fn executions(&self) -> usize {
            self.executions
        }

        fn apply(&mut self, op: Op) -> Result<(), String> {
            if self.fault_op == Some(op) && self.items.len() == self.fault_len {
                return Err(format!("injected fault: {op:?} at len {}", self.fault_len));
            }
            match op {
                Op::Add => self.items.push(1),
                Op::AddPair => {
                    self.items.push(1);
                    self.items.push(1);
                }
                Op::RemoveLast => {
                    self.items.pop().ok_or("remove on empty container")?;
                }
                Op::Clear => self.items.clear(),
                Op::Reverse => self.items.reverse(),
                Op::DoubleReverse => {} // reverse twice = identity
            }
            Ok(())
        }
    }

    impl OpSystem<Op> for Container {
        type Output = Vec<u8>;

        fn execute(&mut self, sequence: &[Op]) -> Result<Vec<u8>, String> {
            self.executions += 1;
            self.items.clear();
            for &op in sequence {
                self.apply(op)?;
            }
            Ok(self.items.clone())
        }
    }

    /// The API's intrinsic equivalences.
    #[must_use]
    pub fn rules() -> Vec<RewriteRule<Op>> {
        vec![
            // add; add ≡ add-pair
            RewriteRule::new(vec![Op::Add, Op::Add], vec![Op::AddPair]),
            // reverse; reverse ≡ double-reverse (both identities)
            RewriteRule::new(vec![Op::Reverse, Op::Reverse], vec![Op::DoubleReverse]),
            // add; remove-last ≡ (nothing)
            RewriteRule::new(vec![Op::Add, Op::RemoveLast], vec![]),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::container::{rules, Container, Op};
    use super::*;

    #[test]
    fn neighbors_apply_rules_both_ways() {
        let engine = WorkaroundEngine::new(rules());
        let neighbors = engine.neighbors(&[Op::Add, Op::Add]);
        assert!(neighbors.contains(&vec![Op::AddPair]));
        let back = engine.neighbors(&[Op::AddPair]);
        assert!(back.contains(&vec![Op::Add, Op::Add]));
    }

    #[test]
    fn equivalent_sequences_preserve_semantics() {
        let engine = WorkaroundEngine::new(rules());
        let seq = vec![Op::Add, Op::Add, Op::Reverse, Op::Reverse];
        let mut clean = Container::new();
        let expected = clean.execute(&seq).unwrap();
        for candidate in engine.equivalent_sequences(&seq) {
            let mut fresh = Container::new();
            assert_eq!(
                fresh.execute(&candidate).unwrap(),
                expected,
                "candidate {candidate:?} is not equivalent"
            );
        }
    }

    #[test]
    fn workaround_escapes_state_dependent_fault() {
        // `Add` fails when the container holds exactly 1 element, so
        // add;add breaks. The equivalent add-pair path works around it.
        let mut system = Container::new().with_fault(Op::Add, 1);
        let seq = vec![Op::Add, Op::Add];
        assert!(system.execute(&seq).is_err(), "fault must manifest");
        let engine = WorkaroundEngine::new(rules());
        let workaround = engine.find_workaround(&mut system, &seq).unwrap();
        assert_eq!(workaround.sequence, vec![Op::AddPair]);
        let mut fresh = Container::new().with_fault(Op::Add, 1);
        assert_eq!(fresh.execute(&workaround.sequence).unwrap(), vec![1, 1]);
    }

    #[test]
    fn workaround_escapes_reverse_fault() {
        // Reverse fails at length 2; double-reverse is the workaround.
        let mut system = Container::new().with_fault(Op::Reverse, 2);
        let seq = vec![Op::AddPair, Op::Reverse, Op::Reverse];
        assert!(system.execute(&seq).is_err());
        let engine = WorkaroundEngine::new(rules());
        let workaround = engine.find_workaround(&mut system, &seq).unwrap();
        assert!(workaround.sequence.contains(&Op::DoubleReverse));
    }

    #[test]
    fn no_rules_no_workaround() {
        let mut system = Container::new().with_fault(Op::Add, 1);
        let engine: WorkaroundEngine<Op> = WorkaroundEngine::new(vec![]);
        assert_eq!(
            engine.find_workaround(&mut system, &[Op::Add, Op::Add]),
            Err(0)
        );
    }

    #[test]
    fn unworkable_failure_reports_attempts() {
        // Fault on AddPair AND on Add-at-1: every equivalent path fails.
        #[derive(Default)]
        struct Hopeless;
        impl OpSystem<Op> for Hopeless {
            type Output = ();
            fn execute(&mut self, _seq: &[Op]) -> Result<(), String> {
                Err("always fails".into())
            }
        }
        let engine = WorkaroundEngine::new(rules());
        let err = engine
            .find_workaround(&mut Hopeless, &[Op::Add, Op::Add])
            .unwrap_err();
        assert!(err >= 1);
    }

    #[test]
    fn candidate_budget_is_respected() {
        let engine = WorkaroundEngine::new(rules()).with_max_candidates(3);
        let seq = vec![Op::Add; 8];
        assert!(engine.equivalent_sequences(&seq).len() <= 3);
    }

    #[test]
    fn more_rules_more_workarounds() {
        // Intrinsic-redundancy degree sweep (the E13 claim in miniature):
        // with richer rule sets, more failures are workaround-able.
        let seq = vec![Op::Add, Op::Add];
        let poor: WorkaroundEngine<Op> = WorkaroundEngine::new(vec![RewriteRule::new(
            vec![Op::Reverse, Op::Reverse],
            vec![Op::DoubleReverse],
        )]);
        let rich = WorkaroundEngine::new(rules());
        let mut sys1 = Container::new().with_fault(Op::Add, 1);
        let mut sys2 = Container::new().with_fault(Op::Add, 1);
        assert!(poor.find_workaround(&mut sys1, &seq).is_err());
        assert!(rich.find_workaround(&mut sys2, &seq).is_ok());
    }

    #[test]
    fn entry_matches_table2() {
        assert_eq!(ENTRY.classification.intention, Intention::Opportunistic);
        assert_eq!(ENTRY.classification.redundancy, RedundancyType::Code);
        assert_eq!(ENTRY.classification.faults, FaultSet::DEVELOPMENT);
        assert_eq!(ENTRY.name, "Automatic workarounds");
    }
}
