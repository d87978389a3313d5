//! Deterministic fault injection for campaign infrastructure.
//!
//! The rest of the workspace injects faults into *computations* (the
//! `redundancy-faults` specs perturb variant outputs); this module
//! injects faults into the *harness itself*: worker panics at chosen
//! trial boundaries, cooperative cancellation at a chosen charge point
//! inside a trial, and scheduling delays on chosen chunks. Together with
//! [`checkpoint`](crate::checkpoint) it answers the question the paper's
//! redundancy patterns pose about their own tooling: does the campaign
//! survive its own crashes without changing its answer?
//!
//! A [`ChaosPlan`] is fully determined by its seed and its explicit
//! injection sites, so a chaos campaign is as reproducible as a clean
//! one. Kill and cancel sites fire **once per plan instance**: after a
//! panic is caught and the campaign resumed *with the same plan*, the
//! re-run of the victim trial proceeds cleanly — exactly the behaviour
//! of a process restart, where the chaos environment variable is gone.
//!
//! Injected panics carry payloads prefixed `"chaos: "` so harness tests
//! can distinguish scripted failures ([`ChaosPlan::is_chaos_panic`])
//! from real bugs.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;
use std::time::Duration;

use redundancy_core::obs::telemetry::{self, Counter};
use redundancy_faults::spec::{hash_fraction, mix64};

/// A fire-once injection site within a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Site {
    KillBefore(usize),
    KillAfter(usize),
    Cancel(usize),
}

/// A deterministic script of harness faults: which trials to kill the
/// worker around, which trials to cancel mid-execution, and how densely
/// to delay chunk scheduling. Shared by reference across campaign
/// workers (`&ChaosPlan` is `Sync`).
#[derive(Debug, Default)]
pub struct ChaosPlan {
    seed: u64,
    kill_before: BTreeSet<usize>,
    kill_after: BTreeSet<usize>,
    cancel_at: BTreeMap<usize, u64>,
    delay_density: f64,
    delay_micros: u64,
    /// Sites that have already fired; kills and cancels are one-shot so
    /// a resumed campaign re-runs its victim trials cleanly.
    fired: Mutex<BTreeSet<Site>>,
}

impl ChaosPlan {
    /// Creates an empty plan (injects nothing) with the given seed for
    /// density-based decisions.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        ChaosPlan {
            seed,
            ..ChaosPlan::default()
        }
    }

    /// Kills the worker (panics) just before trial `index` starts.
    #[must_use]
    pub fn kill_before_trial(mut self, index: usize) -> Self {
        self.kill_before.insert(index);
        self
    }

    /// Kills the worker (panics) just after trial `index` completes,
    /// before its outcome is recorded.
    #[must_use]
    pub fn kill_after_trial(mut self, index: usize) -> Self {
        self.kill_after.insert(index);
        self
    }

    /// Cancels trial `index` on its `checks`-th fuel charge (clamped to
    /// at least 1) via a [`CancelToken::cancel_after`] fuse.
    ///
    /// [`CancelToken::cancel_after`]: redundancy_core::context::CancelToken::cancel_after
    #[must_use]
    pub fn cancel_at_charge(mut self, index: usize, checks: u64) -> Self {
        self.cancel_at.insert(index, checks.max(1));
        self
    }

    /// Delays roughly `density` of scheduling chunks by `micros`
    /// microseconds each, chosen deterministically per chunk index from
    /// the plan seed. `density` is clamped to `[0, 1]`.
    #[must_use]
    pub fn delay_chunks(mut self, density: f64, micros: u64) -> Self {
        self.delay_density = density.clamp(0.0, 1.0);
        self.delay_micros = micros;
        self
    }

    /// Records that `site` fired; returns `false` if it already had.
    fn fire(&self, site: Site) -> bool {
        self.fired
            .lock()
            .expect("chaos lock never poisoned")
            .insert(site)
    }

    /// Hook: call at the top of trial `index`. Panics (once) if the plan
    /// kills the worker before this trial.
    pub fn before_trial(&self, index: usize) {
        if self.kill_before.contains(&index) && self.fire(Site::KillBefore(index)) {
            telemetry::add(Counter::ChaosKills, 1);
            panic!("chaos: killed before trial {index}");
        }
    }

    /// Hook: call after trial `index` computed its outcome but before
    /// the outcome is recorded. Panics (once) if the plan kills the
    /// worker after this trial — modelling the worst checkpoint case,
    /// where finished work is lost because it was never committed.
    pub fn after_trial(&self, index: usize) {
        if self.kill_after.contains(&index) && self.fire(Site::KillAfter(index)) {
            telemetry::add(Counter::ChaosKills, 1);
            panic!("chaos: killed after trial {index}");
        }
    }

    /// Hook: the charge-check budget to arm trial `index`'s context
    /// with, if this plan cancels that trial (once).
    #[must_use]
    pub fn charge_fuse(&self, index: usize) -> Option<u64> {
        let checks = *self.cancel_at.get(&index)?;
        self.fire(Site::Cancel(index)).then_some(checks)
    }

    /// Panics with the scripted-cancellation payload for trial `index`.
    ///
    /// Harnesses call this when a chaos-armed fuse fired mid-trial: the
    /// partial outcome must be *discarded* (not recorded as a detected
    /// failure) or the resumed campaign would disagree with a clean run.
    pub fn cancelled_trial(index: usize) -> ! {
        telemetry::add(Counter::ChaosCancels, 1);
        panic!("chaos: cancelled trial {index}")
    }

    /// Hook: how long chunk `chunk` should stall before running, if this
    /// plan delays it. Deterministic in `(seed, chunk)` and *not*
    /// one-shot — delays perturb scheduling, never results, so replaying
    /// them is harmless and keeps resumed timing comparable.
    #[must_use]
    pub fn chunk_delay(&self, chunk: usize) -> Option<Duration> {
        if self.delay_density <= 0.0 || self.delay_micros == 0 {
            return None;
        }
        let roll = hash_fraction(mix64(self.seed, chunk as u64));
        (roll < self.delay_density).then(|| Duration::from_micros(self.delay_micros))
    }

    /// Whether a caught panic payload is a scripted chaos fault (its
    /// payload is a string prefixed `"chaos: "`) rather than a real bug.
    #[must_use]
    pub fn is_chaos_panic(payload: &(dyn std::any::Any + Send)) -> bool {
        let text = payload
            .downcast_ref::<&'static str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
        text.is_some_and(|t| t.starts_with("chaos: "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn empty_plan_injects_nothing() {
        let plan = ChaosPlan::new(7);
        for i in 0..32 {
            plan.before_trial(i);
            plan.after_trial(i);
            assert_eq!(plan.charge_fuse(i), None);
            assert_eq!(plan.chunk_delay(i), None);
        }
    }

    #[test]
    fn kill_sites_fire_exactly_once() {
        let plan = ChaosPlan::new(0).kill_before_trial(3).kill_after_trial(5);
        let err = catch_unwind(AssertUnwindSafe(|| plan.before_trial(3)))
            .expect_err("first visit panics");
        assert!(ChaosPlan::is_chaos_panic(&*err));
        // The resumed re-run of trial 3 proceeds cleanly.
        plan.before_trial(3);
        let err =
            catch_unwind(AssertUnwindSafe(|| plan.after_trial(5))).expect_err("first visit panics");
        assert!(ChaosPlan::is_chaos_panic(&*err));
        plan.after_trial(5);
        // Unlisted trials never panic.
        plan.before_trial(5);
        plan.after_trial(3);
    }

    #[test]
    fn charge_fuse_is_one_shot_and_clamped() {
        let plan = ChaosPlan::new(0)
            .cancel_at_charge(2, 0)
            .cancel_at_charge(9, 40);
        assert_eq!(plan.charge_fuse(2), Some(1));
        assert_eq!(plan.charge_fuse(2), None);
        assert_eq!(plan.charge_fuse(9), Some(40));
        assert_eq!(plan.charge_fuse(9), None);
        assert_eq!(plan.charge_fuse(0), None);
    }

    #[test]
    fn chunk_delays_are_deterministic_and_density_bounded() {
        let plan = ChaosPlan::new(42).delay_chunks(0.25, 50);
        let again = ChaosPlan::new(42).delay_chunks(0.25, 50);
        let hits = (0..1000)
            .filter(|&c| {
                assert_eq!(plan.chunk_delay(c), again.chunk_delay(c));
                plan.chunk_delay(c) == Some(Duration::from_micros(50))
            })
            .count();
        // ~250 expected; loose bounds keep the test seed-robust.
        assert!((150..350).contains(&hits), "hits={hits}");
        // Different seeds pick different chunks.
        let other = ChaosPlan::new(43).delay_chunks(0.25, 50);
        assert!((0..1000).any(|c| plan.chunk_delay(c) != other.chunk_delay(c)));
    }

    #[test]
    fn chaos_panics_are_recognized_and_real_ones_are_not() {
        let chaos = catch_unwind(|| ChaosPlan::cancelled_trial(4)).expect_err("always panics");
        assert!(ChaosPlan::is_chaos_panic(&*chaos));
        let owned = catch_unwind(|| panic!("{}", String::from("chaos: styled")))
            .expect_err("always panics");
        assert!(ChaosPlan::is_chaos_panic(&*owned));
        let real = catch_unwind(|| panic!("index out of bounds")).expect_err("always panics");
        assert!(!ChaosPlan::is_chaos_panic(&*real));
    }
}
