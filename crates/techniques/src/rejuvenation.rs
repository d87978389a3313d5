//! Software rejuvenation (paper §4.3; Huang/Wang et al. 1995, Garg 1996,
//! Grottke & Trivedi 2007).
//!
//! Aging processes accumulate leaked memory, fragmentation and stale
//! state, so their failure hazard grows with time since the last (re)
//! initialization. Rejuvenation *preventively* restarts the process at a
//! chosen cadence — paying a known, scheduled cost to avoid unknown,
//! unscheduled failures. Garg et al. combine it with checkpoints:
//! rejuvenating every N checkpoints minimizes expected completion time
//! (the U-shaped curve of experiment E7).
//!
//! Classification (Table 2): deliberate / environment / preventive /
//! Heisenbugs.

use redundancy_core::context::ExecContext;
use redundancy_core::outcome::VariantOutcome;
use redundancy_core::rng::SplitMix64;
use redundancy_core::taxonomy::{
    Adjudication, ArchitecturalPattern, Classification, FaultSet, Intention, RedundancyType,
};
use redundancy_core::technique::TechniqueEntry;
use redundancy_core::variant::{run_contained, BoxedVariant};
use redundancy_faults::AgeHandle;

/// Table 2 row for rejuvenation.
pub const ENTRY: TechniqueEntry = TechniqueEntry {
    name: "Rejuvenation",
    classification: Classification::new(
        Intention::Deliberate,
        RedundancyType::Environment,
        Adjudication::Preventive,
        FaultSet::HEISENBUGS,
    ),
    patterns: &[ArchitecturalPattern::IntraComponent],
    citations: &["Huang 1995", "Garg 1996", "Grottke & Trivedi 2007"],
};

/// A preventively rejuvenating executor: every `interval` calls, the
/// managed age handle is reset (the process is re-initialized), paying
/// `rejuvenation_cost` work units.
pub struct Rejuvenator<I, O> {
    variant: BoxedVariant<I, O>,
    age: AgeHandle,
    interval: u64,
    rejuvenation_cost: u64,
    calls: std::sync::atomic::AtomicU64,
    rejuvenations: std::sync::atomic::AtomicU64,
}

impl<I, O> Rejuvenator<I, O> {
    /// Creates a rejuvenating executor.
    ///
    /// `age` must be the age handle the variant's aging faults read (see
    /// [`FaultyVariant::age_handle`](redundancy_faults::FaultyVariant::age_handle)).
    ///
    /// # Panics
    ///
    /// Panics if `interval == 0`.
    #[must_use]
    pub fn new(
        variant: BoxedVariant<I, O>,
        age: AgeHandle,
        interval: u64,
        rejuvenation_cost: u64,
    ) -> Self {
        assert!(interval > 0, "rejuvenation interval must be positive");
        Self {
            variant,
            age,
            interval,
            rejuvenation_cost,
            calls: std::sync::atomic::AtomicU64::new(0),
            rejuvenations: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Number of rejuvenations performed.
    #[must_use]
    pub fn rejuvenations(&self) -> u64 {
        self.rejuvenations
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Executes one call, rejuvenating first when the cadence says so.
    pub fn call(&self, input: &I, ctx: &mut ExecContext) -> VariantOutcome<O> {
        use std::sync::atomic::Ordering;
        let n = self.calls.fetch_add(1, Ordering::Relaxed);
        if n > 0 && n.is_multiple_of(self.interval) {
            let age_before = self.age.age();
            self.age.reset();
            self.rejuvenations.fetch_add(1, Ordering::Relaxed);
            ctx.advance_ns(self.rejuvenation_cost);
            ctx.obs_emit(|| redundancy_core::obs::Point::Rejuvenation { age_before });
        }
        let mut child = ctx.fork(n);
        let outcome = run_contained(self.variant.as_ref(), input, &mut child);
        ctx.join(child);
        ctx.add_sequential_cost(outcome.cost);
        outcome
    }
}

/// Parameters of the Garg-style completion-time model (experiment E7b):
/// a long-running program with checkpoints, aging failures, rollback
/// repair, and rejuvenation every `rejuvenate_every` checkpoints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompletionModel {
    /// Total work units the program must complete.
    pub total_work: u64,
    /// Work units between checkpoints.
    pub checkpoint_interval: u64,
    /// Cost of taking one checkpoint.
    pub checkpoint_cost: u64,
    /// Rejuvenate after this many checkpoints (`0` = never).
    pub rejuvenate_every: u64,
    /// Cost of one rejuvenation.
    pub rejuvenation_cost: u64,
    /// Cost of recovering after a failure (rollback + restart).
    pub failure_repair_cost: u64,
    /// Aging hazard: failure probability per work unit is
    /// `hazard_growth * age`, where age is work since the last
    /// rejuvenation (or start).
    pub hazard_growth: f64,
}

impl Default for CompletionModel {
    fn default() -> Self {
        Self {
            total_work: 10_000,
            checkpoint_interval: 100,
            checkpoint_cost: 5,
            rejuvenate_every: 10,
            rejuvenation_cost: 50,
            failure_repair_cost: 200,
            hazard_growth: 1e-7,
        }
    }
}

/// Simulates the completion of a checkpointed program under aging
/// failures and periodic rejuvenation, returning the total virtual time
/// to completion (Garg et al.'s measure).
#[must_use]
pub fn completion_time(model: &CompletionModel, rng: &mut SplitMix64) -> u64 {
    let mut clock: u64 = 0;
    let mut done: u64 = 0; // work committed at the last checkpoint
    let mut age: u64 = 0; // work since last rejuvenation
    let mut checkpoints_since_rejuvenation: u64 = 0;
    // Guard against pathological parameter choices.
    let max_clock = model.total_work.saturating_mul(1_000).max(1_000_000);
    while done < model.total_work && clock < max_clock {
        let segment = model.checkpoint_interval.min(model.total_work - done);
        // Does the segment survive? Hazard grows with age.
        let mut failed_at = None;
        for unit in 0..segment {
            let hazard = model.hazard_growth * (age + unit) as f64;
            if rng.chance(hazard) {
                failed_at = Some(unit);
                break;
            }
        }
        match failed_at {
            Some(unit) => {
                // Lost the partial segment; pay repair, roll back to the
                // last checkpoint. A failure also implies a restart, which
                // rejuvenates (age resets) — as in Garg's model.
                clock += unit + model.failure_repair_cost;
                age = 0;
                checkpoints_since_rejuvenation = 0;
            }
            None => {
                clock += segment + model.checkpoint_cost;
                done += segment;
                age += segment;
                checkpoints_since_rejuvenation += 1;
                if model.rejuvenate_every > 0
                    && checkpoints_since_rejuvenation >= model.rejuvenate_every
                {
                    clock += model.rejuvenation_cost;
                    age = 0;
                    checkpoints_since_rejuvenation = 0;
                }
            }
        }
    }
    clock
}

#[cfg(test)]
mod tests {
    use super::*;
    use redundancy_faults::{FaultSpec, FaultyVariant};

    fn aging_variant() -> (BoxedVariant<i64, i64>, AgeHandle) {
        let v = FaultyVariant::builder("server", 5, |x: &i64| x + 1)
            .fault(FaultSpec::aging("leak", 0.0, 0.002))
            .build();
        let age = v.age_handle();
        (Box::new(v), age)
    }

    #[test]
    fn rejuvenation_keeps_failure_rate_low() {
        let run = |interval: u64| {
            let (variant, age) = aging_variant();
            let rejuvenator = Rejuvenator::new(variant, age, interval, 10);
            let mut ctx = ExecContext::new(7);
            let failures = (0..2000)
                .filter(|_| !rejuvenator.call(&1, &mut ctx).is_ok())
                .count();
            (failures, rejuvenator.rejuvenations())
        };
        let (failures_frequent, rejuvs) = run(50);
        let (failures_rare, _) = run(100_000); // effectively never
        assert!(rejuvs >= 30);
        assert!(
            failures_frequent * 4 < failures_rare,
            "frequent: {failures_frequent}, rare: {failures_rare}"
        );
    }

    #[test]
    fn rejuvenation_cadence_counts() {
        let (variant, age) = aging_variant();
        let r = Rejuvenator::new(variant, age, 10, 1);
        let mut ctx = ExecContext::new(1);
        for _ in 0..100 {
            let _ = r.call(&1, &mut ctx);
        }
        // Rejuvenates at calls 10, 20, ..., 90 → 9 times (call 0 excluded).
        assert_eq!(r.rejuvenations(), 9);
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn zero_interval_panics() {
        let (variant, age) = aging_variant();
        let _ = Rejuvenator::new(variant, age, 0, 1);
    }

    #[test]
    fn completion_time_shows_u_shape() {
        // Expected completion time vs rejuvenation cadence: never
        // rejuvenating is costly (many failures), rejuvenating every
        // checkpoint is costly (overhead), an intermediate cadence wins.
        let model = CompletionModel {
            total_work: 20_000,
            checkpoint_interval: 200,
            checkpoint_cost: 2,
            rejuvenation_cost: 400,
            failure_repair_cost: 2_000,
            hazard_growth: 3e-7,
            rejuvenate_every: 0,
        };
        let mean_time = |rejuvenate_every: u64, seed: u64| {
            let mut rng = SplitMix64::new(seed);
            let m = CompletionModel {
                rejuvenate_every,
                ..model
            };
            let total: u64 = (0..40).map(|_| completion_time(&m, &mut rng)).sum();
            total / 40
        };
        let never = mean_time(0, 1);
        let sweet = mean_time(8, 2);
        let every = mean_time(1, 3);
        assert!(sweet < never, "sweet {sweet} !< never {never}");
        assert!(sweet < every, "sweet {sweet} !< every-checkpoint {every}");
    }

    #[test]
    fn completion_time_terminates_under_heavy_hazard() {
        let model = CompletionModel {
            total_work: 1_000,
            hazard_growth: 1e-3,
            rejuvenate_every: 0,
            ..CompletionModel::default()
        };
        let mut rng = SplitMix64::new(4);
        let t = completion_time(&model, &mut rng);
        assert!(t > 0);
    }

    #[test]
    fn zero_hazard_costs_only_overhead() {
        let model = CompletionModel {
            total_work: 1_000,
            checkpoint_interval: 100,
            checkpoint_cost: 5,
            rejuvenate_every: 2,
            rejuvenation_cost: 10,
            failure_repair_cost: 0,
            hazard_growth: 0.0,
        };
        let mut rng = SplitMix64::new(5);
        let t = completion_time(&model, &mut rng);
        // 1000 work + 10 checkpoints * 5 + 5 rejuvenations * 10 = 1100.
        assert_eq!(t, 1100);
    }

    #[test]
    fn entry_matches_table2() {
        assert_eq!(ENTRY.classification.redundancy, RedundancyType::Environment);
        assert_eq!(ENTRY.classification.adjudication, Adjudication::Preventive);
        assert_eq!(ENTRY.classification.faults, FaultSet::HEISENBUGS);
        assert_eq!(ENTRY.name, "Rejuvenation");
    }
}
