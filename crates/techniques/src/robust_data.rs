//! Robust data structures and software audits (paper §4.2; Taylor 1980,
//! Connet 1972).
//!
//! Taylor-style robust storage structures carry *redundant structural
//! information* — an element count, node identifiers, and double links —
//! so that an audit can detect corrupted pointers or counters and a
//! repair procedure can reconstruct the damaged part from the surviving
//! redundancy. The redundant information is itself the implicit
//! adjudicator: no external detector is needed.
//!
//! Classification (Table 2): deliberate / data / reactive-implicit /
//! development.

use std::sync::Arc;

use redundancy_core::obs::{ObsHandle, Observer, Point};
use redundancy_core::taxonomy::{
    Adjudication, ArchitecturalPattern, Classification, FaultSet, Intention, RedundancyType,
};
use redundancy_core::technique::TechniqueEntry;

/// Table 2 row for robust data structures and audits.
pub const ENTRY: TechniqueEntry = TechniqueEntry {
    name: "Robust data structures, audits",
    classification: Classification::new(
        Intention::Deliberate,
        RedundancyType::Data,
        Adjudication::ReactiveImplicit,
        FaultSet::DEVELOPMENT,
    ),
    patterns: &[ArchitecturalPattern::IntraComponent],
    citations: &["Taylor 1980", "Connet 1972"],
};

#[derive(Debug, Clone, PartialEq, Eq)]
struct Node<T> {
    value: T,
    /// Stable node identifier (creation order) — redundant ordering
    /// information usable during repair.
    id: u64,
    next: Option<usize>,
    prev: Option<usize>,
}

/// What an audit found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditReport {
    /// Human-readable descriptions of every inconsistency found.
    pub findings: Vec<String>,
}

impl AuditReport {
    /// Whether the structure is consistent.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// The outcome of a repair attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairOutcome {
    /// Nothing was wrong.
    CleanAlready,
    /// Damage was found and fully repaired (a follow-up audit is clean).
    Repaired,
    /// Damage was found but could not be repaired from the surviving
    /// redundancy.
    Unrepairable,
}

/// A doubly linked list with Taylor-style structural redundancy: element
/// count, node ids and double links.
///
/// # Examples
///
/// ```
/// use redundancy_techniques::robust_data::RobustList;
///
/// let mut list = RobustList::new();
/// list.push_back(1);
/// list.push_back(2);
/// assert_eq!(list.to_vec(), vec![&1, &2]);
/// assert!(list.audit().is_clean());
/// ```
#[derive(Debug, Clone)]
pub struct RobustList<T> {
    nodes: Vec<Option<Node<T>>>,
    head: Option<usize>,
    tail: Option<usize>,
    /// Redundant element count.
    count: usize,
    next_id: u64,
    obs: Option<ObsHandle>,
}

impl<T: PartialEq> PartialEq for RobustList<T> {
    fn eq(&self, other: &Self) -> bool {
        // Structural equality; an attached observer is not part of the
        // list's value.
        self.nodes == other.nodes
            && self.head == other.head
            && self.tail == other.tail
            && self.count == other.count
            && self.next_id == other.next_id
    }
}

impl<T: Eq> Eq for RobustList<T> {}

impl<T> RobustList<T> {
    /// Creates an empty list.
    #[must_use]
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            head: None,
            tail: None,
            count: 0,
            next_id: 0,
            obs: None,
        }
    }

    /// Attaches an observer; audits emit [`Point::Audit`] and repairs
    /// emit [`Point::Repair`].
    #[must_use]
    pub fn with_observer(mut self, observer: Arc<dyn Observer>) -> Self {
        self.obs = Some(ObsHandle::new(observer));
        self
    }

    /// Appends a value.
    pub fn push_back(&mut self, value: T) {
        let idx = self.nodes.len();
        let node = Node {
            value,
            id: self.next_id,
            next: None,
            prev: self.tail,
        };
        self.next_id += 1;
        self.nodes.push(Some(node));
        if let Some(tail) = self.tail {
            if let Some(Some(t)) = self.nodes.get_mut(tail) {
                t.next = Some(idx);
            }
        } else {
            self.head = Some(idx);
        }
        self.tail = Some(idx);
        self.count += 1;
    }

    /// Removes and returns the first value.
    pub fn pop_front(&mut self) -> Option<T> {
        let head = self.head?;
        let node = self.nodes.get_mut(head)?.take()?;
        self.head = node.next;
        match node.next {
            Some(next) => {
                if let Some(Some(n)) = self.nodes.get_mut(next) {
                    n.prev = None;
                }
            }
            None => self.tail = None,
        }
        self.count -= 1;
        Some(node.value)
    }

    /// The redundant element count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the list is empty (by count).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Values in order, walking the forward chain (with a cycle guard).
    #[must_use]
    pub fn to_vec(&self) -> Vec<&T> {
        let mut out = Vec::new();
        let mut cursor = self.head;
        let mut steps = 0;
        while let Some(idx) = cursor {
            if steps > self.nodes.len() {
                break; // cycle: stop rather than loop forever
            }
            match self.nodes.get(idx).and_then(Option::as_ref) {
                Some(node) => {
                    out.push(&node.value);
                    cursor = node.next;
                }
                None => break,
            }
            steps += 1;
        }
        out
    }

    fn forward_walk(&self) -> Result<Vec<usize>, String> {
        let mut visited = Vec::new();
        let mut cursor = self.head;
        while let Some(idx) = cursor {
            if visited.len() > self.nodes.len() {
                return Err("cycle in forward chain".to_owned());
            }
            let node = self
                .nodes
                .get(idx)
                .and_then(Option::as_ref)
                .ok_or_else(|| format!("next pointer to dead slot {idx}"))?;
            visited.push(idx);
            cursor = node.next;
        }
        Ok(visited)
    }

    fn backward_walk(&self) -> Result<Vec<usize>, String> {
        let mut visited = Vec::new();
        let mut cursor = self.tail;
        while let Some(idx) = cursor {
            if visited.len() > self.nodes.len() {
                return Err("cycle in backward chain".to_owned());
            }
            let node = self
                .nodes
                .get(idx)
                .and_then(Option::as_ref)
                .ok_or_else(|| format!("prev pointer to dead slot {idx}"))?;
            visited.push(idx);
            cursor = node.prev;
        }
        visited.reverse();
        Ok(visited)
    }

    /// Audits the structure: checks the forward chain, the backward
    /// chain, their agreement, and the redundant count.
    #[must_use]
    pub fn audit(&self) -> AuditReport {
        let mut findings = Vec::new();
        let live = self.nodes.iter().filter(|n| n.is_some()).count();
        match self.forward_walk() {
            Ok(forward) => {
                if forward.len() != self.count {
                    findings.push(format!(
                        "count mismatch: chain has {} nodes, count says {}",
                        forward.len(),
                        self.count
                    ));
                }
                if forward.len() != live {
                    findings.push(format!(
                        "forward chain covers {} of {live} live nodes",
                        forward.len()
                    ));
                }
                if let Some(&last) = forward.last() {
                    if self.tail != Some(last) {
                        findings.push("tail does not match the end of the forward chain".into());
                    }
                }
                // Check prev pointers against the forward order.
                for pair in forward.windows(2) {
                    let (a, b) = (pair[0], pair[1]);
                    let prev_of_b = self.nodes[b].as_ref().and_then(|n| n.prev);
                    if prev_of_b != Some(a) {
                        findings.push(format!("prev pointer of slot {b} disagrees with chain"));
                    }
                }
                if let Some(&first) = forward.first() {
                    if self.nodes[first].as_ref().and_then(|n| n.prev).is_some() {
                        findings.push("head node has a prev pointer".into());
                    }
                }
            }
            Err(problem) => findings.push(problem),
        }
        if let Some(obs) = &self.obs {
            let errors = findings.len() as u64;
            obs.emit(0, move || Point::Audit {
                clean: errors == 0,
                errors,
            });
        }
        AuditReport { findings }
    }

    /// Attempts to repair detected damage from the surviving redundancy:
    /// if the backward chain is intact it is authoritative (next pointers
    /// and count are rebuilt from it); if only the count disagrees with an
    /// intact forward chain, the count is recomputed; prev-pointer damage
    /// is rebuilt from an intact forward chain.
    pub fn repair(&mut self) -> RepairOutcome {
        let outcome = self.repair_inner();
        if let Some(obs) = &self.obs {
            let label = match outcome {
                RepairOutcome::CleanAlready => "clean-already",
                RepairOutcome::Repaired => "full",
                RepairOutcome::Unrepairable => "unrepairable",
            };
            obs.emit(0, || Point::Repair { outcome: label });
        }
        outcome
    }

    fn repair_inner(&mut self) -> RepairOutcome {
        if self.audit().is_clean() {
            return RepairOutcome::CleanAlready;
        }
        let live = self.nodes.iter().filter(|n| n.is_some()).count();
        // Prefer the forward chain when complete.
        if let Ok(forward) = self.forward_walk() {
            if forward.len() == live {
                self.rebuild_from(&forward);
                return self.verify_repair();
            }
        }
        // Fall back to the backward chain.
        if let Ok(backward) = self.backward_walk() {
            if backward.len() == live {
                self.rebuild_from(&backward);
                return self.verify_repair();
            }
        }
        RepairOutcome::Unrepairable
    }

    fn rebuild_from(&mut self, order: &[usize]) {
        for (pos, &idx) in order.iter().enumerate() {
            let prev = if pos == 0 { None } else { Some(order[pos - 1]) };
            let next = order.get(pos + 1).copied();
            if let Some(Some(node)) = self.nodes.get_mut(idx) {
                node.prev = prev;
                node.next = next;
            }
        }
        self.head = order.first().copied();
        self.tail = order.last().copied();
        self.count = order.len();
    }

    fn verify_repair(&self) -> RepairOutcome {
        if self.audit().is_clean() {
            RepairOutcome::Repaired
        } else {
            RepairOutcome::Unrepairable
        }
    }

    // ----- corruption hooks (fault injection for experiments/tests) -----

    /// Overwrites the `next` pointer of the node at live position `pos`.
    pub fn corrupt_next(&mut self, pos: usize, new_next: Option<usize>) {
        if let Ok(forward) = self.forward_walk() {
            if let Some(&idx) = forward.get(pos) {
                if let Some(Some(node)) = self.nodes.get_mut(idx) {
                    node.next = new_next;
                }
            }
        }
    }

    /// Overwrites the `prev` pointer of the node at live position `pos`.
    pub fn corrupt_prev(&mut self, pos: usize, new_prev: Option<usize>) {
        if let Ok(forward) = self.forward_walk() {
            if let Some(&idx) = forward.get(pos) {
                if let Some(Some(node)) = self.nodes.get_mut(idx) {
                    node.prev = new_prev;
                }
            }
        }
    }

    /// Corrupts the redundant count.
    pub fn corrupt_count(&mut self, new_count: usize) {
        self.count = new_count;
    }
}

impl<T> Default for RobustList<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> FromIterator<T> for RobustList<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut list = RobustList::new();
        for item in iter {
            list.push_back(item);
        }
        list
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> RobustList<usize> {
        (0..n).collect()
    }

    #[test]
    fn basic_operations() {
        let mut list = sample(3);
        assert_eq!(list.len(), 3);
        assert_eq!(list.to_vec(), vec![&0, &1, &2]);
        assert_eq!(list.pop_front(), Some(0));
        assert_eq!(list.len(), 2);
        assert_eq!(list.to_vec(), vec![&1, &2]);
        assert!(list.audit().is_clean());
        assert_eq!(list.pop_front(), Some(1));
        assert_eq!(list.pop_front(), Some(2));
        assert_eq!(list.pop_front(), None);
        assert!(list.is_empty());
        assert!(list.audit().is_clean());
    }

    #[test]
    fn audit_detects_count_corruption() {
        let mut list = sample(5);
        list.corrupt_count(3);
        let report = list.audit();
        assert!(!report.is_clean());
        assert!(report.findings.iter().any(|f| f.contains("count mismatch")));
    }

    #[test]
    fn audit_detects_truncating_next_corruption() {
        let mut list = sample(5);
        list.corrupt_next(1, None); // chain now ends after 2 nodes
        let report = list.audit();
        assert!(!report.is_clean());
    }

    #[test]
    fn audit_detects_cycle() {
        let mut list = sample(4);
        list.corrupt_next(3, Some(0)); // tail loops back to head
        let report = list.audit();
        assert!(!report.is_clean());
        assert!(report.findings.iter().any(|f| f.contains("cycle")));
    }

    #[test]
    fn audit_detects_prev_corruption() {
        let mut list = sample(4);
        list.corrupt_prev(2, Some(0));
        let report = list.audit();
        assert!(!report.is_clean());
        assert!(report.findings.iter().any(|f| f.contains("prev")));
    }

    #[test]
    fn repairs_count_from_intact_chain() {
        let mut list = sample(5);
        list.corrupt_count(99);
        assert_eq!(list.repair(), RepairOutcome::Repaired);
        assert_eq!(list.len(), 5);
        assert!(list.audit().is_clean());
    }

    #[test]
    fn repairs_next_damage_from_backward_chain() {
        let mut list = sample(5);
        list.corrupt_next(1, None);
        assert_eq!(list.repair(), RepairOutcome::Repaired);
        assert_eq!(list.to_vec(), vec![&0, &1, &2, &3, &4]);
        assert!(list.audit().is_clean());
    }

    #[test]
    fn repairs_prev_damage_from_forward_chain() {
        let mut list = sample(5);
        list.corrupt_prev(3, None);
        assert_eq!(list.repair(), RepairOutcome::Repaired);
        assert!(list.audit().is_clean());
    }

    #[test]
    fn double_corruption_of_both_chains_is_unrepairable() {
        let mut list = sample(6);
        // Break the backward chain first (corrupt_prev locates positions
        // via the forward chain, so it must still be intact), then the
        // forward chain: afterwards neither walk covers all live nodes.
        list.corrupt_prev(4, None);
        list.corrupt_next(2, None);
        assert_eq!(list.repair(), RepairOutcome::Unrepairable);
    }

    #[test]
    fn clean_repair_is_noop() {
        let mut list = sample(3);
        assert_eq!(list.repair(), RepairOutcome::CleanAlready);
    }

    #[test]
    fn iteration_survives_cycles_gracefully() {
        let mut list = sample(3);
        list.corrupt_next(2, Some(0));
        // to_vec stops instead of hanging.
        let v = list.to_vec();
        assert!(v.len() <= 4);
    }

    #[test]
    fn entry_matches_table2() {
        assert_eq!(ENTRY.classification.redundancy, RedundancyType::Data);
        assert_eq!(
            ENTRY.classification.adjudication,
            Adjudication::ReactiveImplicit
        );
        assert_eq!(ENTRY.name, "Robust data structures, audits");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Any single pointer corruption is repairable, and repair
            /// restores the exact element sequence.
            #[test]
            fn single_next_corruption_is_repairable(
                n in 2usize..12,
                pos_frac in 0.0f64..1.0,
                target_frac in 0.0f64..1.0,
            ) {
                let mut list: RobustList<usize> = (0..n).collect();
                let pos = ((n as f64 - 1.0) * pos_frac) as usize;
                let target = Some(((n as f64 - 1.0) * target_frac) as usize);
                list.corrupt_next(pos, target);
                let outcome = list.repair();
                prop_assert_ne!(outcome, RepairOutcome::Unrepairable);
                prop_assert!(list.audit().is_clean());
                let values: Vec<usize> = list.to_vec().into_iter().copied().collect();
                prop_assert_eq!(values, (0..n).collect::<Vec<_>>());
            }

            /// Count corruption never loses data.
            #[test]
            fn count_corruption_is_always_repairable(n in 0usize..12, bogus in 0usize..100) {
                let mut list: RobustList<usize> = (0..n).collect();
                list.corrupt_count(bogus);
                let outcome = list.repair();
                prop_assert_ne!(outcome, RepairOutcome::Unrepairable);
                prop_assert_eq!(list.len(), n);
            }

            /// Audit is sound: an untouched list always audits clean, and
            /// pop/push sequences keep it clean.
            #[test]
            fn audit_clean_under_normal_operation(ops in proptest::collection::vec(0u8..2, 0..40)) {
                let mut list: RobustList<u32> = RobustList::new();
                let mut model: std::collections::VecDeque<u32> = Default::default();
                let mut counter = 0u32;
                for op in ops {
                    if op == 0 {
                        list.push_back(counter);
                        model.push_back(counter);
                        counter += 1;
                    } else {
                        prop_assert_eq!(list.pop_front(), model.pop_front());
                    }
                    prop_assert!(list.audit().is_clean());
                    prop_assert_eq!(list.len(), model.len());
                }
                let values: Vec<u32> = list.to_vec().into_iter().copied().collect();
                let expect: Vec<u32> = model.into_iter().collect();
                prop_assert_eq!(values, expect);
            }
        }
    }
}
