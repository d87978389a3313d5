//! Self-optimizing code (paper §4.1; Diaconescu 2004, Naccache 2007).
//!
//! The same functionality is implemented by several components, each
//! optimized for different runtime conditions. A monitor watches the
//! quality of service (here: latency) of the active implementation and,
//! when it degrades past a threshold, switches to another implementation
//! — a reactive, explicit adjudicator watching a non-functional property.
//!
//! Classification (Table 2): deliberate / code / reactive-explicit /
//! development.

use std::sync::atomic::{AtomicUsize, Ordering};

use redundancy_core::context::ExecContext;
use redundancy_core::outcome::{VariantFailure, VariantOutcome};
use redundancy_core::patterns::run_technique_span;
use redundancy_core::taxonomy::{
    Adjudication, ArchitecturalPattern, Classification, FaultSet, Intention, RedundancyType,
};
use redundancy_core::technique::TechniqueEntry;
use redundancy_core::variant::{run_contained, BoxedVariant};

/// Table 2 row for self-optimizing code.
pub const ENTRY: TechniqueEntry = TechniqueEntry {
    name: "Self-optimizing code",
    classification: Classification::new(
        Intention::Deliberate,
        RedundancyType::Code,
        Adjudication::ReactiveExplicit,
        FaultSet::DEVELOPMENT,
    ),
    patterns: &[ArchitecturalPattern::SequentialAlternatives],
    citations: &["Diaconescu 2004", "Naccache 2007"],
};

/// A QoS-driven implementation switcher.
///
/// Tracks an exponential moving average of the active implementation's
/// latency (virtual time per call); when it exceeds `threshold`, the next
/// implementation becomes active. Switching is circular, so a recovered
/// implementation can be revisited.
///
/// # Examples
///
/// ```
/// use redundancy_core::context::ExecContext;
/// use redundancy_core::variant::pure_variant;
/// use redundancy_techniques::self_optimizing::SelfOptimizing;
///
/// let so = SelfOptimizing::new(100.0)
///     .with_implementation(pure_variant("fast", 10, |x: &i64| x + 1))
///     .with_implementation(pure_variant("fallback", 50, |x: &i64| x + 1));
/// let mut ctx = ExecContext::new(0);
/// assert_eq!(so.call(&1, &mut ctx).result, Ok(2));
/// assert_eq!(so.active(), 0); // fast impl is healthy, no switch
/// ```
pub struct SelfOptimizing<I, O> {
    implementations: Vec<BoxedVariant<I, O>>,
    threshold: f64,
    /// EMA smoothing factor.
    alpha: f64,
    active: AtomicUsize,
    /// EMA of latency, stored as micro-units in an atomic.
    ema_millis: AtomicUsize,
    switches: AtomicUsize,
}

impl<I, O> SelfOptimizing<I, O> {
    /// Creates a switcher that changes implementation when the latency
    /// EMA exceeds `threshold` virtual ns.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is not positive.
    #[must_use]
    pub fn new(threshold: f64) -> Self {
        assert!(threshold > 0.0, "threshold must be positive");
        Self {
            implementations: Vec::new(),
            threshold,
            alpha: 0.3,
            active: AtomicUsize::new(0),
            ema_millis: AtomicUsize::new(0),
            switches: AtomicUsize::new(0),
        }
    }

    /// Adds an implementation (insertion order is preference order).
    #[must_use]
    pub fn with_implementation(mut self, implementation: BoxedVariant<I, O>) -> Self {
        self.implementations.push(implementation);
        self
    }

    /// Index of the active implementation.
    #[must_use]
    pub fn active(&self) -> usize {
        self.active.load(Ordering::Relaxed)
    }

    /// Number of implementation switches performed.
    #[must_use]
    pub fn switches(&self) -> usize {
        self.switches.load(Ordering::Relaxed)
    }

    /// Calls the active implementation, monitoring its latency; may switch
    /// the active implementation for *subsequent* calls.
    ///
    /// # Panics
    ///
    /// Panics if no implementation was added.
    pub fn call(&self, input: &I, ctx: &mut ExecContext) -> VariantOutcome<O> {
        use redundancy_core::obs::SpanStatus;
        assert!(
            !self.implementations.is_empty(),
            "self-optimizing code needs implementations"
        );
        run_technique_span(
            ctx,
            "self-optimizing",
            |ctx| self.call_inner(input, ctx),
            |outcome| match &outcome.result {
                Ok(_) => SpanStatus::Ok,
                Err(failure) => SpanStatus::Failed {
                    kind: failure.kind(),
                },
            },
        )
    }

    fn call_inner(&self, input: &I, ctx: &mut ExecContext) -> VariantOutcome<O> {
        let idx = self.active();
        let variant = &self.implementations[idx];
        let stream = idx as u64 ^ ctx.rng().next_u64();
        let mut child = ctx.fork(stream);
        let outcome = run_contained(variant.as_ref(), input, &mut child);
        ctx.join(child);
        ctx.add_sequential_cost(outcome.cost);
        // Detectable failures count as worst-case latency.
        let latency = if outcome.is_ok() {
            outcome.cost.virtual_ns as f64
        } else {
            self.threshold * 2.0
        };
        let old_ema = self.ema_millis.load(Ordering::Relaxed) as f64 / 1000.0;
        let new_ema = if old_ema == 0.0 {
            latency
        } else {
            self.alpha * latency + (1.0 - self.alpha) * old_ema
        };
        self.ema_millis
            .store((new_ema * 1000.0) as usize, Ordering::Relaxed);
        if new_ema > self.threshold && self.implementations.len() > 1 {
            let next = (idx + 1) % self.implementations.len();
            self.active.store(next, Ordering::Relaxed);
            self.switches.fetch_add(1, Ordering::Relaxed);
            self.ema_millis.store(0, Ordering::Relaxed);
            ctx.obs_emit(|| redundancy_core::obs::Point::Custom {
                name: "impl-switch",
                detail: redundancy_core::obs::Symbol::intern(&format!("{idx}->{next}")),
            });
        }
        outcome
    }

    /// Calls and unwraps the output, mapping failures through.
    ///
    /// # Errors
    ///
    /// Propagates the active implementation's [`VariantFailure`].
    pub fn call_output(&self, input: &I, ctx: &mut ExecContext) -> Result<O, VariantFailure> {
        self.call(input, ctx).result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    use redundancy_core::variant::{pure_variant, FnVariant};

    /// A variant whose per-call work grows after a number of calls
    /// (performance degradation under load).
    fn degrading(
        name: &str,
        base: u64,
        degrade_after: u64,
        degraded: u64,
    ) -> BoxedVariant<i64, i64> {
        let calls = Arc::new(AtomicU64::new(0));
        Box::new(FnVariant::new(
            name,
            move |x: &i64, ctx: &mut ExecContext| {
                let n = calls.fetch_add(1, Ordering::Relaxed);
                let work = if n >= degrade_after { degraded } else { base };
                ctx.charge(work).map_err(|_| VariantFailure::Timeout)?;
                Ok(x + 1)
            },
        ))
    }

    #[test]
    fn stays_on_healthy_implementation() {
        let so = SelfOptimizing::new(100.0)
            .with_implementation(pure_variant("fast", 10, |x: &i64| x + 1))
            .with_implementation(pure_variant("slow", 50, |x: &i64| x + 1));
        let mut ctx = ExecContext::new(0);
        for _ in 0..50 {
            assert_eq!(so.call(&1, &mut ctx).result, Ok(2));
        }
        assert_eq!(so.active(), 0);
        assert_eq!(so.switches(), 0);
    }

    #[test]
    fn switches_when_active_degrades() {
        let so = SelfOptimizing::new(100.0)
            .with_implementation(degrading("degrades", 10, 20, 500))
            .with_implementation(pure_variant("steady", 50, |x: &i64| x + 1));
        let mut ctx = ExecContext::new(0);
        for _ in 0..60 {
            let _ = so.call(&1, &mut ctx);
        }
        assert_eq!(so.active(), 1, "monitor failed to switch");
        assert!(so.switches() >= 1);
        // And it stays on the healthy implementation afterwards.
        let before = so.switches();
        for _ in 0..30 {
            let _ = so.call(&1, &mut ctx);
        }
        assert_eq!(so.switches(), before);
    }

    #[test]
    fn detectable_failures_force_a_switch() {
        let so = SelfOptimizing::new(100.0)
            .with_implementation(crate::self_checking::always_failing("dead"))
            .with_implementation(pure_variant("alive", 10, |x: &i64| x * 2));
        let mut ctx = ExecContext::new(0);
        let first = so.call(&3, &mut ctx);
        assert!(!first.is_ok());
        // The failure pushed the EMA over threshold: next call uses impl 1.
        assert_eq!(so.active(), 1);
        assert_eq!(so.call(&3, &mut ctx).result, Ok(6));
    }

    #[test]
    fn results_remain_correct_across_switches() {
        let so = SelfOptimizing::new(50.0)
            .with_implementation(degrading("a", 10, 5, 300))
            .with_implementation(degrading("b", 10, 5, 300))
            .with_implementation(pure_variant("c", 20, |x: &i64| x + 1));
        let mut ctx = ExecContext::new(0);
        for _ in 0..100 {
            let out = so.call(&41, &mut ctx);
            assert_eq!(out.result, Ok(42));
        }
        assert_eq!(so.active(), 2);
    }

    #[test]
    #[should_panic(expected = "needs implementations")]
    fn empty_switcher_panics_on_call() {
        let so: SelfOptimizing<i64, i64> = SelfOptimizing::new(10.0);
        let mut ctx = ExecContext::new(0);
        let _ = so.call(&1, &mut ctx);
    }

    #[test]
    fn entry_matches_table2() {
        assert_eq!(ENTRY.classification.intention, Intention::Deliberate);
        assert_eq!(ENTRY.classification.redundancy, RedundancyType::Code);
        assert_eq!(
            ENTRY.classification.adjudication,
            Adjudication::ReactiveExplicit
        );
        assert_eq!(ENTRY.name, "Self-optimizing code");
    }
}
