//! Variants: independently produced implementations of one logical
//! functionality.
//!
//! A [`Variant`] is the unit of code redundancy: N-version programming
//! executes several of them in parallel, recovery blocks try them one at a
//! time, self-checking components pair them with acceptance tests. Variants
//! are executed *contained*: panics are caught and surfaced as
//! [`VariantFailure::Crash`], and fuel exhaustion as
//! [`VariantFailure::Timeout`], so a misbehaving alternative can never take
//! down the adjudicating pattern — the framework's analogue of the process
//! isolation that classic fault-tolerant architectures assume.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::context::ExecContext;
use crate::outcome::{VariantFailure, VariantOutcome};

/// One independently designed implementation of a logical function
/// `I -> O`.
///
/// Implementations must be [`Send`] and [`Sync`] so pattern engines can run
/// them from worker threads.
pub trait Variant<I, O>: Send + Sync {
    /// Identifies the variant in outcomes, logs and tables.
    fn name(&self) -> &str;

    /// The name as an interned [`Symbol`](redundancy_obs::Symbol): the
    /// identity [`run_contained`] stamps on every [`VariantOutcome`] and
    /// trace span, so it is read once per execution, traced or not.
    ///
    /// The default is a per-call interner lookup of [`name`](Self::name)
    /// — the global interner lock plus a hash probe on every execution.
    /// It is kept only for out-of-tree implementors: every variant in
    /// this workspace stores its symbol when built and overrides this
    /// with a field copy, and new implementations should do the same.
    fn symbol(&self) -> redundancy_obs::Symbol {
        redundancy_obs::Symbol::intern(self.name())
    }

    /// Executes the variant.
    ///
    /// # Errors
    ///
    /// Returns a [`VariantFailure`] for *detectable* failures. Silent wrong
    /// outputs are returned as `Ok` — only adjudication can catch those.
    fn execute(&self, input: &I, ctx: &mut ExecContext) -> Result<O, VariantFailure>;

    /// Relative design cost of this variant (1.0 = one ordinary
    /// implementation). N-version experiments use this for the §4.1
    /// cost/efficacy analysis.
    fn design_cost(&self) -> f64 {
        1.0
    }
}

/// A [`Variant`] built from a closure.
///
/// # Examples
///
/// ```
/// use redundancy_core::variant::{FnVariant, Variant};
/// use redundancy_core::context::ExecContext;
///
/// let double = FnVariant::new("double", |x: &i32, _ctx: &mut ExecContext| Ok(x * 2));
/// let mut ctx = ExecContext::new(0);
/// assert_eq!(double.execute(&21, &mut ctx), Ok(42));
/// ```
pub struct FnVariant<F> {
    name: redundancy_obs::Symbol,
    design_cost: f64,
    f: F,
}

impl<F> FnVariant<F> {
    /// Wraps a closure as a variant. The name is interned once here, so
    /// traced executions copy a 4-byte symbol per span instead of
    /// allocating.
    pub fn new(name: impl AsRef<str>, f: F) -> Self {
        Self {
            name: redundancy_obs::Symbol::intern(name.as_ref()),
            design_cost: 1.0,
            f,
        }
    }

    /// Sets the design cost (defaults to 1.0).
    #[must_use]
    pub fn with_design_cost(mut self, cost: f64) -> Self {
        self.design_cost = cost;
        self
    }
}

impl<I, O, F> Variant<I, O> for FnVariant<F>
where
    F: Fn(&I, &mut ExecContext) -> Result<O, VariantFailure> + Send + Sync,
{
    fn name(&self) -> &str {
        self.name.resolve()
    }

    fn symbol(&self) -> redundancy_obs::Symbol {
        self.name
    }

    fn execute(&self, input: &I, ctx: &mut ExecContext) -> Result<O, VariantFailure> {
        (self.f)(input, ctx)
    }

    fn design_cost(&self) -> f64 {
        self.design_cost
    }
}

impl<I, O> Variant<I, O> for Box<dyn Variant<I, O>> {
    fn name(&self) -> &str {
        self.as_ref().name()
    }

    fn symbol(&self) -> redundancy_obs::Symbol {
        self.as_ref().symbol()
    }

    fn execute(&self, input: &I, ctx: &mut ExecContext) -> Result<O, VariantFailure> {
        self.as_ref().execute(input, ctx)
    }

    fn design_cost(&self) -> f64 {
        self.as_ref().design_cost()
    }
}

/// Executes a variant with crash containment, producing a
/// [`VariantOutcome`] whatever happens.
///
/// Panics become [`VariantFailure::Crash`]; the cost accumulated in `ctx`
/// *during this call* is attached to the outcome (and removed from `ctx`, so
/// callers can meter each variant independently).
pub fn run_contained<I, O, V>(variant: &V, input: &I, ctx: &mut ExecContext) -> VariantOutcome<O>
where
    V: Variant<I, O> + ?Sized,
{
    let name = variant.symbol();
    let span = ctx.obs_begin(|| redundancy_obs::SpanKind::Variant { name });
    let before = ctx.cost();
    ctx.record_invocation(variant.design_cost());
    let result = catch_unwind(AssertUnwindSafe(|| variant.execute(input, ctx)));
    let result = match result {
        Ok(res) => res,
        Err(payload) => Err(VariantFailure::crash(panic_message(payload.as_ref()))),
    };
    // A failure under a fired cancellation token is a cooperative stop,
    // not a genuine timeout/crash: report it as such so adjudicators and
    // traces can tell abandoned work from failed work.
    let result = match result {
        Err(_) if ctx.was_cancelled() => {
            ctx.obs_emit(|| redundancy_obs::Point::VariantCancelled { variant: name });
            Err(VariantFailure::Cancelled)
        }
        other => other,
    };
    let status = match &result {
        Ok(_) => redundancy_obs::SpanStatus::Ok,
        Err(failure) => redundancy_obs::SpanStatus::Failed {
            kind: failure.kind(),
        },
    };
    ctx.obs_end(span, status, ctx.cost().delta_since(before).snapshot());
    let cost = ctx.take_cost();
    VariantOutcome {
        variant: name,
        result,
        cost,
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_owned()
    }
}

/// Boxed trait-object alias used by pattern engines.
pub type BoxedVariant<I, O> = Box<dyn Variant<I, O>>;

/// Builds a boxed variant from a plain `Fn(&I) -> O` that cannot fail and
/// charges `work` units per call. Convenient for tests and examples.
pub fn pure_variant<I, O, F>(name: &str, work: u64, f: F) -> BoxedVariant<I, O>
where
    I: 'static,
    O: 'static,
    F: Fn(&I) -> O + Send + Sync + 'static,
{
    Box::new(FnVariant::new(
        name,
        move |input: &I, ctx: &mut ExecContext| {
            ctx.charge(work).map_err(|_| VariantFailure::Timeout)?;
            Ok(f(input))
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_variant_executes() {
        let v = FnVariant::new("inc", |x: &i32, _: &mut ExecContext| Ok(x + 1));
        let mut ctx = ExecContext::new(0);
        assert_eq!(v.execute(&1, &mut ctx), Ok(2));
        assert_eq!(Variant::<i32, i32>::name(&v), "inc");
    }

    #[test]
    fn contained_run_catches_panic() {
        let v: BoxedVariant<i32, i32> = Box::new(FnVariant::new(
            "bomb",
            |_: &i32, _: &mut ExecContext| -> Result<i32, VariantFailure> {
                panic!("kaboom");
            },
        ));
        let mut ctx = ExecContext::new(0);
        let outcome = run_contained(v.as_ref(), &5, &mut ctx);
        match outcome.result {
            Err(VariantFailure::Crash { message }) => assert_eq!(message, "kaboom"),
            other => panic!("expected crash, got {other:?}"),
        }
    }

    #[test]
    fn contained_run_catches_string_panic() {
        let v = FnVariant::new(
            "bomb2",
            |_: &i32, _: &mut ExecContext| -> Result<i32, VariantFailure> {
                panic!("code {}", 7);
            },
        );
        let mut ctx = ExecContext::new(0);
        let outcome = run_contained(&v, &5, &mut ctx);
        match outcome.result {
            Err(VariantFailure::Crash { message }) => assert_eq!(message, "code 7"),
            other => panic!("expected crash, got {other:?}"),
        }
    }

    #[test]
    fn contained_run_meters_cost_per_variant() {
        let v = pure_variant("work", 25, |x: &i32| x * 3);
        let mut ctx = ExecContext::new(0);
        let outcome = run_contained(v.as_ref(), &2, &mut ctx);
        assert_eq!(outcome.result, Ok(6));
        assert_eq!(outcome.cost.work_units, 25);
        assert_eq!(outcome.cost.invocations, 1);
        // cost was moved out of the context
        assert_eq!(ctx.cost().work_units, 0);
    }

    #[test]
    fn fuel_exhaustion_becomes_timeout() {
        let v = pure_variant("hungry", 1000, |x: &i32| *x);
        let mut ctx = ExecContext::with_fuel(0, 10);
        let outcome = run_contained(v.as_ref(), &1, &mut ctx);
        assert_eq!(outcome.result, Err(VariantFailure::Timeout));
    }

    #[test]
    fn cancelled_charge_reports_cancelled_not_timeout() {
        use crate::context::CancelToken;
        let v = pure_variant("slow", 100, |x: &i32| *x);
        let token = CancelToken::new();
        token.cancel();
        let mut ctx = ExecContext::new(0).with_cancel_token(token);
        let outcome = run_contained(v.as_ref(), &1, &mut ctx);
        assert_eq!(outcome.result, Err(VariantFailure::Cancelled));
    }

    #[test]
    fn design_cost_defaults_and_overrides() {
        let v = FnVariant::new("x", |_: &(), _: &mut ExecContext| Ok(()));
        assert!((Variant::<(), ()>::design_cost(&v) - 1.0).abs() < f64::EPSILON);
        let v = v.with_design_cost(3.0);
        assert!((Variant::<(), ()>::design_cost(&v) - 3.0).abs() < f64::EPSILON);
    }

    #[test]
    fn boxed_variant_delegates() {
        let v: BoxedVariant<i32, i32> = pure_variant("p", 1, |x| x + 10);
        assert_eq!(v.name(), "p");
        let mut ctx = ExecContext::new(0);
        assert_eq!(v.execute(&1, &mut ctx), Ok(11));
    }
}
