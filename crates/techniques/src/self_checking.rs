//! Self-checking programming (paper §4.1; Laprie et al. 1990, Yau &
//! Cheung 1975).
//!
//! Each functionality is implemented by *self-checking components* running
//! in parallel: an "acting" component and "hot spares". A self-checking
//! component is either a variant with a built-in acceptance test (explicit
//! adjudicator) or a pair of independently designed variants with a final
//! comparison (implicit adjudicator). No rollback is ever needed: when the
//! acting component fails, a hot spare's already-validated result is used.
//!
//! Classification (Table 2): deliberate / code / reactive-expl./impl. /
//! development.

use redundancy_core::adjudicator::acceptance::{AcceptanceTest, BoxedAcceptance, FnAcceptance};
use redundancy_core::context::ExecContext;
use redundancy_core::obs::Symbol;
use redundancy_core::outcome::VariantFailure;
use redundancy_core::patterns::{
    run_technique_span, verdict_status, DecisionPolicy, ExecutionMode, ParallelSelection,
    PatternReport,
};
use redundancy_core::taxonomy::{
    Adjudication, ArchitecturalPattern, Classification, FaultSet, Intention, RedundancyType,
};
use redundancy_core::technique::TechniqueEntry;
use redundancy_core::variant::{BoxedVariant, FnVariant, Variant};

/// Table 2 row for self-checking programming.
pub const ENTRY: TechniqueEntry = TechniqueEntry {
    name: "Self-checking programming",
    classification: Classification::new(
        Intention::Deliberate,
        RedundancyType::Code,
        Adjudication::ReactiveMixed,
        FaultSet::DEVELOPMENT,
    ),
    patterns: &[ArchitecturalPattern::ParallelSelection],
    citations: &["Laprie 1990", "Yau 1975", "Dobson 2006"],
};

/// A variant made of a *pair* of independently designed implementations
/// whose results are compared — the implicit-adjudicator flavor of a
/// self-checking component. Divergence is reported as a detectable error.
pub struct ComparedPair<I, O> {
    name: Symbol,
    left: BoxedVariant<I, O>,
    right: BoxedVariant<I, O>,
}

impl<I, O> ComparedPair<I, O> {
    /// Creates a compared pair.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        left: BoxedVariant<I, O>,
        right: BoxedVariant<I, O>,
    ) -> Self {
        Self {
            name: Symbol::intern(&name.into()),
            left,
            right,
        }
    }
}

impl<I, O> Variant<I, O> for ComparedPair<I, O>
where
    I: Send + Sync,
    O: PartialEq + Send + Sync,
{
    fn name(&self) -> &str {
        self.name.resolve()
    }

    fn symbol(&self) -> Symbol {
        self.name
    }

    fn execute(&self, input: &I, ctx: &mut ExecContext) -> Result<O, VariantFailure> {
        let a = self.left.execute(input, ctx)?;
        let b = self.right.execute(input, ctx)?;
        if a == b {
            Ok(a)
        } else {
            Err(VariantFailure::error(format!(
                "self-check divergence in component `{}`",
                self.name
            )))
        }
    }

    fn design_cost(&self) -> f64 {
        self.left.design_cost() + self.right.design_cost()
    }
}

/// A self-checking program: acting component first, hot spares behind it,
/// all executing in parallel.
pub struct SelfChecking<I, O> {
    pattern: ParallelSelection<I, O>,
    components: usize,
}

impl<I, O> SelfChecking<I, O>
where
    I: 'static,
    O: 'static,
{
    /// Creates an empty self-checking program.
    #[must_use]
    pub fn new() -> Self {
        Self {
            pattern: ParallelSelection::new(),
            components: 0,
        }
    }

    /// Adds a component with a built-in acceptance test (explicit
    /// adjudicator). The first component added is the acting one.
    #[must_use]
    pub fn with_tested_component(
        mut self,
        variant: BoxedVariant<I, O>,
        test: impl AcceptanceTest<I, O> + 'static,
    ) -> Self {
        self.pattern.push_component(variant, Box::new(test));
        self.components += 1;
        self
    }

    /// Adds a component made of two compared implementations (implicit
    /// adjudicator).
    #[must_use]
    pub fn with_compared_pair(
        mut self,
        name: &str,
        left: BoxedVariant<I, O>,
        right: BoxedVariant<I, O>,
    ) -> Self
    where
        I: Send + Sync,
        O: PartialEq + Send + Sync,
    {
        let pair: BoxedVariant<I, O> = Box::new(ComparedPair::new(name, left, right));
        // The pair already rejects divergence internally; the component's
        // acceptance test only needs to accept what survived comparison.
        let accept_all: BoxedAcceptance<I, O> =
            Box::new(FnAcceptance::new("pair-survived", |_: &I, _: &O| true));
        self.pattern.push_component(pair, accept_all);
        self.components += 1;
        self
    }

    /// Switches to real threads.
    #[must_use]
    pub fn threaded(mut self) -> Self {
        self.pattern = self.pattern.with_mode(ExecutionMode::Threaded);
        self
    }

    /// Sets the decision policy. Under [`DecisionPolicy::Eager`] the run
    /// concludes as soon as the acting result validates: hot spares whose
    /// turn never comes are skipped (sequential mode) or cooperatively
    /// cancelled (threaded mode) instead of finishing their now-useless
    /// executions.
    #[must_use]
    pub fn with_policy(mut self, policy: DecisionPolicy) -> Self {
        self.pattern = self.pattern.with_policy(policy);
        self
    }

    /// The decision policy in effect.
    #[must_use]
    pub fn policy(&self) -> DecisionPolicy {
        self.pattern.policy()
    }

    /// Number of self-checking components.
    #[must_use]
    pub fn components(&self) -> usize {
        self.components
    }

    /// Runs all components in parallel and selects the acting result (or
    /// the first validated hot spare).
    pub fn run(&self, input: &I, ctx: &mut ExecContext) -> PatternReport<O>
    where
        I: Sync,
        O: Send + Clone,
    {
        run_technique_span(
            ctx,
            "self-checking",
            |ctx| self.pattern.run(input, ctx),
            |report| verdict_status(&report.verdict),
        )
    }
}

impl<I, O> Default for SelfChecking<I, O>
where
    I: 'static,
    O: 'static,
{
    fn default() -> Self {
        Self::new()
    }
}

/// A helper building a crash-only variant for tests and experiments.
#[must_use]
pub fn always_failing<I, O>(name: &str) -> BoxedVariant<I, O>
where
    I: Send + Sync + 'static,
    O: Send + Sync + 'static,
{
    let label = name.to_owned();
    Box::new(FnVariant::new(name, move |_: &I, _: &mut ExecContext| {
        Err(VariantFailure::crash(format!("{label} failed")))
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use redundancy_core::variant::pure_variant;

    fn positive() -> FnAcceptance<impl Fn(&i64, &i64) -> bool> {
        FnAcceptance::new("positive", |_: &i64, out: &i64| *out > 0)
    }

    #[test]
    fn acting_component_wins_when_valid() {
        let sc = SelfChecking::new()
            .with_tested_component(pure_variant("acting", 10, |x: &i64| x + 1), positive())
            .with_tested_component(pure_variant("spare", 10, |x: &i64| x + 2), positive());
        let mut ctx = ExecContext::new(0);
        let report = sc.run(&1, &mut ctx);
        assert_eq!(report.output(), Some(&2));
        assert_eq!(report.selected.as_deref(), Some("acting"));
        assert_eq!(sc.components(), 2);
    }

    #[test]
    fn hot_spare_replaces_failing_acting_component() {
        let sc = SelfChecking::new()
            .with_tested_component(always_failing("acting"), positive())
            .with_tested_component(pure_variant("spare", 10, |x: &i64| x + 2), positive());
        let mut ctx = ExecContext::new(0);
        let report = sc.run(&1, &mut ctx);
        assert_eq!(report.output(), Some(&3));
        assert_eq!(report.selected.as_deref(), Some("spare"));
    }

    #[test]
    fn no_rollback_needed_costs_critical_path() {
        // Unlike recovery blocks, the spare has already run: switching
        // costs nothing extra — virtual time is the critical path.
        let sc = SelfChecking::new()
            .with_tested_component(pure_variant("acting", 30, |_: &i64| -1), positive())
            .with_tested_component(pure_variant("spare", 50, |x: &i64| *x), positive());
        let mut ctx = ExecContext::new(0);
        let report = sc.run(&7, &mut ctx);
        assert_eq!(report.output(), Some(&7));
        assert_eq!(report.cost.virtual_ns, 50);
    }

    #[test]
    fn compared_pair_detects_divergence() {
        let sc = SelfChecking::new()
            .with_compared_pair(
                "pair",
                pure_variant("impl-a", 5, |x: &i64| x * 2),
                pure_variant("impl-b-buggy", 5, |x: &i64| x * 2 + 1),
            )
            .with_tested_component(pure_variant("spare", 5, |x: &i64| x * 2), positive());
        let mut ctx = ExecContext::new(0);
        let report = sc.run(&4, &mut ctx);
        // The diverging pair is discarded; the spare's validated result wins.
        assert_eq!(report.output(), Some(&8));
        assert_eq!(report.selected.as_deref(), Some("spare"));
    }

    #[test]
    fn compared_pair_passes_agreeing_results() {
        let sc = SelfChecking::new().with_compared_pair(
            "pair",
            pure_variant("impl-a", 5, |x: &i64| x * 2),
            pure_variant("impl-b", 7, |x: &i64| x + x),
        );
        let mut ctx = ExecContext::new(0);
        assert_eq!(sc.run(&4, &mut ctx).into_output(), Some(8));
    }

    #[test]
    fn pair_design_cost_is_doubled() {
        let pair: ComparedPair<i64, i64> = ComparedPair::new(
            "pair",
            pure_variant("a", 5, |x: &i64| *x),
            pure_variant("b", 5, |x: &i64| *x),
        );
        assert!((Variant::<i64, i64>::design_cost(&pair) - 2.0).abs() < f64::EPSILON);
    }

    #[test]
    fn pair_symbol_is_the_interned_name() {
        let pair: ComparedPair<i64, i64> = ComparedPair::new(
            "sym-pair",
            pure_variant("a", 5, |x: &i64| *x),
            pure_variant("b", 5, |x: &i64| *x),
        );
        let name = Variant::<i64, i64>::name(&pair);
        assert_eq!(name, "sym-pair");
        assert_eq!(Variant::<i64, i64>::symbol(&pair), Symbol::intern(name));
    }

    #[test]
    fn all_components_failing_rejects() {
        let sc: SelfChecking<i64, i64> = SelfChecking::new()
            .with_tested_component(always_failing("a"), positive())
            .with_tested_component(always_failing("b"), positive());
        let mut ctx = ExecContext::new(0);
        assert!(!sc.run(&1, &mut ctx).is_accepted());
    }

    #[test]
    fn eager_policy_skips_hot_spares_once_acting_validates() {
        let mk = |policy| {
            SelfChecking::new()
                .with_tested_component(pure_variant("acting", 10, |x: &i64| x + 1), positive())
                .with_tested_component(pure_variant("spare1", 10, |x: &i64| x + 1), positive())
                .with_tested_component(pure_variant("spare2", 10, |x: &i64| x + 1), positive())
                .with_policy(policy)
        };
        let mut c1 = ExecContext::new(4);
        let exhaustive = mk(DecisionPolicy::Exhaustive).run(&1, &mut c1);
        let mut c2 = ExecContext::new(4);
        let eager = mk(DecisionPolicy::Eager).run(&1, &mut c2);

        assert_eq!(eager.output(), exhaustive.output());
        assert_eq!(eager.selected, exhaustive.selected);
        assert_eq!(eager.executed(), 1, "acting result decides immediately");
        assert_eq!(eager.skipped(), 2);
        assert!(c2.cost().work_units < c1.cost().work_units);
    }

    #[test]
    fn entry_matches_table2() {
        assert_eq!(
            ENTRY.classification.adjudication,
            Adjudication::ReactiveMixed
        );
        assert_eq!(ENTRY.classification.faults, FaultSet::DEVELOPMENT);
        assert_eq!(ENTRY.patterns, &[ArchitecturalPattern::ParallelSelection]);
        assert_eq!(ENTRY.name, "Self-checking programming");
    }
}

/// A *stateful* self-checking system, as deployed long-term: components
/// that fail validation are **discarded** and the next hot spare is
/// promoted to acting — "an acting component that fails is discarded and
/// replaced by the hot spare" (Laprie et al., paper §4.1). Execution thus
/// progressively consumes the initial explicit redundancy; when the last
/// component is discarded the system fail-stops.
pub struct SelfCheckingSystem<I, O> {
    components: Vec<(BoxedVariant<I, O>, BoxedAcceptance<I, O>)>,
    alive: Vec<std::sync::atomic::AtomicBool>,
}

impl<I, O> SelfCheckingSystem<I, O> {
    /// Creates an empty system.
    #[must_use]
    pub fn new() -> Self {
        Self {
            components: Vec::new(),
            alive: Vec::new(),
        }
    }

    /// Adds a self-checking component (variant + built-in acceptance
    /// test). The first added is the initial acting component.
    #[must_use]
    pub fn with_component(
        mut self,
        variant: BoxedVariant<I, O>,
        test: impl AcceptanceTest<I, O> + 'static,
    ) -> Self {
        self.components.push((variant, Box::new(test)));
        self.alive.push(std::sync::atomic::AtomicBool::new(true));
        self
    }

    /// Number of components still in service.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.alive
            .iter()
            .filter(|a| a.load(std::sync::atomic::Ordering::Relaxed))
            .count()
    }

    /// Index of the current acting component, if any survive.
    #[must_use]
    pub fn acting(&self) -> Option<usize> {
        self.alive
            .iter()
            .position(|a| a.load(std::sync::atomic::Ordering::Relaxed))
    }

    /// Serves one request: all surviving components run in parallel, each
    /// validated by its own test; the acting (lowest surviving index)
    /// validated result is delivered. Components whose result fails
    /// validation are permanently discarded.
    ///
    /// # Errors
    ///
    /// Returns [`VariantFailure::Omission`] when no component survives,
    /// or an error describing the exhaustion of this request's spares.
    pub fn serve(&self, input: &I, ctx: &mut ExecContext) -> Result<O, VariantFailure>
    where
        I: Send + Sync,
        O: Send + Sync + Clone,
    {
        use std::sync::atomic::Ordering;
        if self.remaining() == 0 {
            return Err(VariantFailure::Omission);
        }
        let mut delivered: Option<O> = None;
        for (idx, (variant, test)) in self.components.iter().enumerate() {
            if !self.alive[idx].load(Ordering::Relaxed) {
                continue;
            }
            let mut child = ctx.fork(idx as u64);
            let outcome =
                redundancy_core::variant::run_contained(variant.as_ref(), input, &mut child);
            ctx.join(child);
            ctx.add_sequential_cost(outcome.cost);
            let valid = outcome.output().is_some_and(|out| test.accept(input, out));
            if valid {
                if delivered.is_none() {
                    delivered = outcome.result.ok();
                }
            } else {
                // Failed self-check: discard the component for good.
                self.alive[idx].store(false, Ordering::Relaxed);
            }
        }
        delivered.ok_or_else(|| {
            VariantFailure::error("every self-checking component was discarded this request")
        })
    }
}

impl<I, O> Default for SelfCheckingSystem<I, O> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod system_tests {
    use super::*;
    use redundancy_core::adjudicator::acceptance::FnAcceptance;
    use redundancy_core::context::ExecContext;
    use redundancy_core::variant::pure_variant;
    use redundancy_faults::{FaultSpec, FaultyVariant};

    fn positive() -> FnAcceptance<impl Fn(&i64, &i64) -> bool> {
        FnAcceptance::new("positive", |_: &i64, out: &i64| *out > 0)
    }

    #[test]
    fn failing_acting_component_is_discarded_permanently() {
        let system = SelfCheckingSystem::new()
            .with_component(pure_variant("acting-bad", 5, |_: &i64| -1), positive())
            .with_component(pure_variant("spare", 5, |x: &i64| x + 1), positive());
        let mut ctx = ExecContext::new(1);
        assert_eq!(system.acting(), Some(0));
        assert_eq!(system.serve(&1, &mut ctx), Ok(2));
        // The acting component was discarded; the spare is promoted.
        assert_eq!(system.acting(), Some(1));
        assert_eq!(system.remaining(), 1);
        // Subsequent requests no longer pay for the dead component.
        let before = ctx.cost().invocations;
        assert_eq!(system.serve(&2, &mut ctx), Ok(3));
        assert_eq!(ctx.cost().invocations - before, 1);
    }

    #[test]
    fn redundancy_is_progressively_consumed() {
        // Components with transient faults are discarded one by one; the
        // system serves until the pool is exhausted, then fail-stops.
        let mk = |name: &str, p: f64| -> BoxedVariant<i64, i64> {
            FaultyVariant::builder(name, 5, |x: &i64| x + 1)
                .fault(FaultSpec::heisenbug("flaky", p))
                .build_boxed()
        };
        let system = SelfCheckingSystem::new()
            .with_component(mk("c0", 0.2), positive())
            .with_component(mk("c1", 0.2), positive())
            .with_component(mk("c2", 0.2), positive())
            .with_component(mk("c3", 0.2), positive());
        let mut ctx = ExecContext::new(9);
        let mut served = 0;
        let mut history = Vec::new();
        for x in 0..400i64 {
            match system.serve(&x, &mut ctx) {
                Ok(out) => {
                    assert_eq!(out, x + 1);
                    served += 1;
                }
                Err(_) => break,
            }
            history.push(system.remaining());
        }
        // Monotone consumption of the redundancy pool. (The final
        // discards happen inside the failing request, after the last
        // history entry.)
        assert!(history.windows(2).all(|w| w[1] <= w[0]));
        assert!(served > 3, "served only {served}");
        assert_eq!(system.remaining(), 0);
        assert!(system.serve(&1, &mut ctx).is_err());
    }

    #[test]
    fn healthy_components_survive_indefinitely() {
        let system = SelfCheckingSystem::new()
            .with_component(pure_variant("good", 5, |x: &i64| x + 1), positive())
            .with_component(pure_variant("spare", 5, |x: &i64| x + 1), positive());
        let mut ctx = ExecContext::new(2);
        for x in 0..200i64 {
            assert_eq!(system.serve(&x, &mut ctx), Ok(x + 1));
        }
        assert_eq!(system.remaining(), 2);
    }

    #[test]
    fn empty_system_fail_stops() {
        let system: SelfCheckingSystem<i64, i64> = SelfCheckingSystem::new();
        let mut ctx = ExecContext::new(3);
        assert_eq!(system.serve(&1, &mut ctx), Err(VariantFailure::Omission));
    }
}
