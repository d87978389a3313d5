//! Reboot and micro-reboot (paper §5.2; Candea's JAGR 2003, Zhang 2007).
//!
//! Rebooting discards a corrupted execution environment wholesale. Candea
//! et al. refine the brute-force full reboot into *micro-reboots* of the
//! smallest failing component, escalating to enclosing components (and
//! ultimately the whole system) only when the localized reboot does not
//! cure the failure. The pay-off is recovery time proportional to the
//! faulty component's size instead of the whole system's — measured by
//! experiment E11.
//!
//! Classification (Table 2): opportunistic / environment /
//! reactive-explicit / Heisenbugs.

use std::collections::HashMap;

use redundancy_core::rng::SplitMix64;
use redundancy_core::taxonomy::{
    Adjudication, ArchitecturalPattern, Classification, FaultSet, Intention, RedundancyType,
};
use redundancy_core::technique::TechniqueEntry;

/// Table 2 row for reboot and micro-reboot.
pub const ENTRY: TechniqueEntry = TechniqueEntry {
    name: "Reboot and micro-reboot",
    classification: Classification::new(
        Intention::Opportunistic,
        RedundancyType::Environment,
        Adjudication::ReactiveExplicit,
        FaultSet::HEISENBUGS,
    ),
    patterns: &[ArchitecturalPattern::IntraComponent],
    citations: &["Candea 2003 (JAGR)", "Zhang 2007"],
};

/// A node in the component tree.
#[derive(Debug, Clone)]
struct Component {
    name: String,
    parent: Option<usize>,
    children: Vec<usize>,
    /// Restart cost of this component alone (its children add theirs).
    own_restart_cost: u64,
    /// Whether the component currently holds corrupted state.
    corrupted: bool,
}

/// The reboot policy under evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RebootPolicy {
    /// Always reboot the whole system.
    Full,
    /// Reboot only the failing leaf component (never escalate).
    MicroOnly,
    /// Micro-reboot first, escalate to the parent on repeated failure
    /// (the JAGR recursive-reboot policy).
    Escalating,
}

/// Result of handling one failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryRecord {
    /// Virtual time spent rebooting.
    pub recovery_time: u64,
    /// Number of reboot operations performed.
    pub reboots: u32,
    /// Whether the corruption was actually cleared.
    pub cured: bool,
}

/// A restartable component tree (an application server and its
/// subsystems, in JAGR's setting).
#[derive(Debug, Clone, Default)]
pub struct ComponentTree {
    components: Vec<Component>,
    index: HashMap<String, usize>,
}

impl ComponentTree {
    /// Creates an empty tree.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a root component.
    ///
    /// # Panics
    ///
    /// Panics if the name is already taken.
    pub fn add_root(&mut self, name: impl Into<String>, restart_cost: u64) -> &mut Self {
        self.insert(name.into(), None, restart_cost);
        self
    }

    /// Adds a child component under `parent`.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is unknown or the name is already taken.
    pub fn add_child(
        &mut self,
        parent: &str,
        name: impl Into<String>,
        restart_cost: u64,
    ) -> &mut Self {
        let parent_idx = *self.index.get(parent).expect("unknown parent component");
        self.insert(name.into(), Some(parent_idx), restart_cost);
        self
    }

    fn insert(&mut self, name: String, parent: Option<usize>, restart_cost: u64) {
        assert!(
            !self.index.contains_key(&name),
            "component name already used"
        );
        let idx = self.components.len();
        self.components.push(Component {
            name: name.clone(),
            parent,
            children: Vec::new(),
            own_restart_cost: restart_cost,
            corrupted: false,
        });
        if let Some(p) = parent {
            self.components[p].children.push(idx);
        }
        self.index.insert(name, idx);
    }

    /// Number of components.
    #[must_use]
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// Whether the tree is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// Marks a component's state as corrupted (a failure manifested
    /// there). `scope_up` marks that many ancestors as corrupted too — a
    /// failure whose root cause lives above the observed symptom, the
    /// case that defeats non-escalating micro-reboots.
    ///
    /// # Panics
    ///
    /// Panics if the component is unknown.
    pub fn corrupt(&mut self, name: &str, scope_up: usize) {
        let mut idx = *self.index.get(name).expect("unknown component");
        self.components[idx].corrupted = true;
        for _ in 0..scope_up {
            match self.components[idx].parent {
                Some(p) => {
                    self.components[p].corrupted = true;
                    idx = p;
                }
                None => break,
            }
        }
    }

    /// Whether any component holds corrupted state.
    #[must_use]
    pub fn any_corrupted(&self) -> bool {
        self.components.iter().any(|c| c.corrupted)
    }

    /// Names of the currently corrupted components (for diagnostics).
    #[must_use]
    pub fn corrupted_components(&self) -> Vec<&str> {
        self.components
            .iter()
            .filter(|c| c.corrupted)
            .map(|c| c.name.as_str())
            .collect()
    }

    /// Total restart cost of the subtree rooted at `idx`.
    fn subtree_cost(&self, idx: usize) -> u64 {
        let mut total = self.components[idx].own_restart_cost;
        for &child in &self.components[idx].children {
            total += self.subtree_cost(child);
        }
        total
    }

    /// Restarts the subtree rooted at `idx`, clearing corruption there.
    fn reboot_subtree(&mut self, idx: usize) -> u64 {
        let cost = self.subtree_cost(idx);
        let mut stack = vec![idx];
        while let Some(i) = stack.pop() {
            self.components[i].corrupted = false;
            stack.extend(self.components[i].children.iter().copied());
        }
        cost
    }

    fn root_of(&self, mut idx: usize) -> usize {
        while let Some(p) = self.components[idx].parent {
            idx = p;
        }
        idx
    }

    /// Handles a failure observed at component `name` under `policy`.
    ///
    /// # Panics
    ///
    /// Panics if the component is unknown.
    pub fn recover(&mut self, name: &str, policy: RebootPolicy) -> RecoveryRecord {
        let observed = *self.index.get(name).expect("unknown component");
        match policy {
            RebootPolicy::Full => {
                let root = self.root_of(observed);
                let time = self.reboot_subtree(root);
                RecoveryRecord {
                    recovery_time: time,
                    reboots: 1,
                    cured: !self.any_corrupted(),
                }
            }
            RebootPolicy::MicroOnly => {
                let time = self.reboot_subtree(observed);
                RecoveryRecord {
                    recovery_time: time,
                    reboots: 1,
                    cured: !self.any_corrupted(),
                }
            }
            RebootPolicy::Escalating => {
                let mut time = 0;
                let mut reboots = 0;
                let mut scope = observed;
                loop {
                    time += self.reboot_subtree(scope);
                    reboots += 1;
                    if !self.any_corrupted() {
                        return RecoveryRecord {
                            recovery_time: time,
                            reboots,
                            cured: true,
                        };
                    }
                    match self.components[scope].parent {
                        Some(p) => scope = p,
                        None => {
                            return RecoveryRecord {
                                recovery_time: time,
                                reboots,
                                cured: !self.any_corrupted(),
                            }
                        }
                    }
                }
            }
        }
    }

    /// A three-tier application-server tree (JAGR's setting): root →
    /// tiers → per-tier components, for tests and experiment E11.
    #[must_use]
    pub fn jagr_demo() -> ComponentTree {
        let mut tree = ComponentTree::new();
        tree.add_root("server", 1000);
        for (tier, tier_cost) in [("web", 200u64), ("app", 300), ("db", 500)] {
            tree.add_child("server", tier, tier_cost);
            for i in 0..4 {
                tree.add_child(tier, format!("{tier}-c{i}"), 20);
            }
        }
        tree
    }
}

/// Availability over a horizon of `requests` with component failures
/// arriving at `failure_rate` per request, recovered under `policy`.
/// Returns `(availability, mean_recovery_time)`. A fraction `deep_frac`
/// of failures corrupt one level above the observed component.
#[must_use]
pub fn availability_sim(
    policy: RebootPolicy,
    requests: u64,
    failure_rate: f64,
    deep_frac: f64,
    rng: &mut SplitMix64,
) -> (f64, f64) {
    let mut tree = ComponentTree::jagr_demo();
    let leaves: Vec<String> = (0..4)
        .flat_map(|i| {
            ["web", "app", "db"]
                .iter()
                .map(move |t| format!("{t}-c{i}"))
                .collect::<Vec<_>>()
        })
        .collect();
    let mut downtime: u64 = 0;
    let mut recoveries = 0u64;
    let mut recovery_total: u64 = 0;
    let service_time_per_request: u64 = 10;
    for _ in 0..requests {
        if rng.chance(failure_rate) {
            let leaf = rng.choose(&leaves).expect("leaves exist").clone();
            let scope_up = usize::from(rng.chance(deep_frac));
            tree.corrupt(&leaf, scope_up);
            let record = tree.recover(&leaf, policy);
            // Uncured corruption keeps failing until a full reboot: charge
            // the remaining cleanup as extra downtime.
            let residual = if record.cured {
                0
            } else {
                tree.recover("server", RebootPolicy::Full).recovery_time
            };
            downtime += record.recovery_time + residual;
            recovery_total += record.recovery_time + residual;
            recoveries += 1;
        }
    }
    let uptime = requests * service_time_per_request;
    let availability = uptime as f64 / (uptime + downtime) as f64;
    let mean_recovery = if recoveries == 0 {
        0.0
    } else {
        recovery_total as f64 / recoveries as f64
    };
    (availability, mean_recovery)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_reboot_is_much_cheaper_than_full() {
        let mut tree = ComponentTree::jagr_demo();
        tree.corrupt("db-c1", 0);
        let micro = tree.recover("db-c1", RebootPolicy::MicroOnly);
        assert!(micro.cured);
        assert_eq!(micro.recovery_time, 20);

        let mut tree = ComponentTree::jagr_demo();
        tree.corrupt("db-c1", 0);
        let full = tree.recover("db-c1", RebootPolicy::Full);
        assert!(full.cured);
        // Full reboot: 1000 + (200+300+500) + 12*20 = 2240.
        assert_eq!(full.recovery_time, 2240);
        assert!(full.recovery_time > micro.recovery_time * 50);
    }

    #[test]
    fn micro_only_fails_on_deep_corruption() {
        let mut tree = ComponentTree::jagr_demo();
        tree.corrupt("db-c1", 1); // the db tier itself is corrupted
        let micro = tree.recover("db-c1", RebootPolicy::MicroOnly);
        assert!(!micro.cured, "leaf reboot cannot clear tier corruption");
        assert!(tree.any_corrupted());
    }

    #[test]
    fn escalation_cures_deep_corruption() {
        let mut tree = ComponentTree::jagr_demo();
        tree.corrupt("db-c1", 1);
        let rec = tree.recover("db-c1", RebootPolicy::Escalating);
        assert!(rec.cured);
        assert_eq!(rec.reboots, 2, "leaf then tier");
        // Leaf (20) + tier subtree (500 + 4*20 = 580).
        assert_eq!(rec.recovery_time, 600);
        assert!(!tree.any_corrupted());
    }

    #[test]
    fn escalation_reaches_root_when_needed() {
        let mut tree = ComponentTree::jagr_demo();
        tree.corrupt("db-c1", 2); // leaf, tier, and server corrupted
        let rec = tree.recover("db-c1", RebootPolicy::Escalating);
        assert!(rec.cured);
        assert_eq!(rec.reboots, 3);
    }

    #[test]
    fn availability_ranking_matches_the_paper() {
        let mut rng = SplitMix64::new(11);
        let (a_full, t_full) = availability_sim(RebootPolicy::Full, 20_000, 0.01, 0.2, &mut rng);
        let (a_esc, t_esc) =
            availability_sim(RebootPolicy::Escalating, 20_000, 0.01, 0.2, &mut rng);
        assert!(
            a_esc > a_full,
            "escalating {a_esc} should beat full {a_full}"
        );
        assert!(t_esc < t_full, "esc {t_esc} !< full {t_full}");
    }

    #[test]
    fn tree_construction_and_accessors() {
        let tree = ComponentTree::jagr_demo();
        assert_eq!(tree.len(), 1 + 3 + 12);
        assert!(!tree.is_empty());
        assert!(!tree.any_corrupted());
    }

    #[test]
    #[should_panic(expected = "unknown parent")]
    fn unknown_parent_panics() {
        let mut tree = ComponentTree::new();
        tree.add_child("ghost", "x", 1);
    }

    #[test]
    #[should_panic(expected = "already used")]
    fn duplicate_name_panics() {
        let mut tree = ComponentTree::new();
        tree.add_root("a", 1);
        tree.add_root("a", 1);
    }

    #[test]
    fn entry_matches_table2() {
        assert_eq!(ENTRY.classification.intention, Intention::Opportunistic);
        assert_eq!(ENTRY.classification.faults, FaultSet::HEISENBUGS);
        assert_eq!(ENTRY.name, "Reboot and micro-reboot");
    }
}
