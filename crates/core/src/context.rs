//! Execution context threaded through every variant execution.
//!
//! [`ExecContext`] carries the deterministic random stream, the cost
//! accounting of [`crate::cost::Cost`], and an optional *fuel* budget that
//! models timeouts: a variant that runs out of fuel is reported as hung,
//! which lets the framework exercise watchdog-style detection without real
//! wall-clock waits.
//!
//! It also carries the optional trace: attach an [`Observer`] with
//! [`ExecContext::with_observer`] and every pattern engine and technique
//! running under this context emits structured [`redundancy_obs`] events
//! — spans for technique/pattern/variant executions, points for verdicts,
//! fuel exhaustion, checkpoints and the rest. A forked context records
//! into a trace of its own, which reaches the parent's when the parent
//! [`join`](ExecContext::join)s it. With no observer attached (the
//! default) the instrumentation is a single branch per site, and
//! crucially it never touches the random stream or the fork counter, so
//! traced and untraced runs are bitwise identical in behavior.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use redundancy_obs::{
    CostSnapshot, ObsHandle, Observer, Point, SpanKind, SpanStatus, SpanToken, Trace,
};

use crate::cost::Cost;
use crate::rng::SplitMix64;

/// Error returned by [`ExecContext::charge`] when the fuel budget is
/// exhausted. Variants should propagate it; pattern engines convert it into
/// [`VariantFailure::Timeout`](crate::outcome::VariantFailure::Timeout).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuelExhausted;

impl fmt::Display for FuelExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("execution fuel exhausted")
    }
}

impl std::error::Error for FuelExhausted {}

/// A shared flag pattern engines raise once their verdict is fixed, so
/// still-running variants can stop cooperatively. Checked (one relaxed
/// atomic load) on every [`ExecContext::charge`] of a context that carries
/// one; contexts without a token (the default) pay nothing.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    /// Optional charge-check fuse (see [`CancelToken::cancel_after`]):
    /// each [`is_cancelled`](CancelToken::is_cancelled) check consumes
    /// one unit, and the token fires itself when the budget is spent.
    fuse: Option<Arc<AtomicU64>>,
    /// The token of the enclosing run, if any (see
    /// [`ExecContext::child_cancel_token`]): this token also reads as
    /// cancelled once that one does.
    parent: Option<Arc<CancelToken>>,
}

impl CancelToken {
    /// Creates an un-fired token.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a token that fires itself on the `checks`-th
    /// [`is_cancelled`](CancelToken::is_cancelled) check (`checks` is
    /// clamped to at least 1). Since contexts check once per
    /// [`ExecContext::charge`], this cancels an execution at a
    /// deterministic charge point — the simulator's chaos harness uses
    /// it to inject cancellation mid-trial without patching call sites.
    #[must_use]
    pub fn cancel_after(checks: u64) -> Self {
        CancelToken {
            fuse: Some(Arc::new(AtomicU64::new(checks.max(1)))),
            ..Self::default()
        }
    }

    /// Fires the token: every context carrying it starts failing
    /// [`ExecContext::charge`] calls.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether the token, or the token of an enclosing run it was linked
    /// to, has fired. With a [`cancel_after`](CancelToken::cancel_after)
    /// fuse, each call consumes one unit of the budget and the last unit
    /// fires the token.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        if self.flag.load(Ordering::Acquire) {
            return true;
        }
        if let Some(fuse) = &self.fuse {
            match fuse.fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| v.checked_sub(1)) {
                // This check consumed the last unit, or the budget was
                // already spent: the fuse has blown.
                Ok(1) | Err(_) => {
                    self.flag.store(true, Ordering::Release);
                    return true;
                }
                Ok(_) => {}
            }
        }
        self.parent
            .as_deref()
            .is_some_and(CancelToken::is_cancelled)
    }
}

/// Per-execution context: deterministic randomness, cost metering, fuel.
///
/// # Examples
///
/// ```
/// use redundancy_core::context::ExecContext;
///
/// let mut ctx = ExecContext::new(42);
/// ctx.charge(10).unwrap();
/// assert_eq!(ctx.cost().work_units, 10);
/// let coin = ctx.rng().chance(0.5); // deterministic for seed 42
/// let _ = coin;
/// ```
#[derive(Debug)]
pub struct ExecContext {
    rng: SplitMix64,
    cost: Cost,
    fuel: Option<u64>,
    initial_fuel: Option<u64>,
    /// Count of forks taken so far; folded into every child stream so
    /// that repeated forks (e.g. one per retry, or one per request in a
    /// campaign) get fresh, still-deterministic randomness.
    forks: std::cell::Cell<u64>,
    /// The trace this context records into; `None` (the default) means
    /// untraced. One pointer, so an untraced context stays small.
    obs: Option<Trace>,
    /// Cancellation token; `None` (the default) means uncancellable.
    /// Inherited by forks so nested pattern runs stop too.
    cancel: Option<CancelToken>,
    /// Set when a [`charge`](Self::charge) failed because the token fired
    /// (rather than because fuel ran out), so `run_contained` can report
    /// the resulting failure as `Cancelled` instead of `Timeout`.
    cancelled: bool,
}

impl ExecContext {
    /// Creates a context with unlimited fuel.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            rng: SplitMix64::new(seed),
            cost: Cost::ZERO,
            fuel: None,
            initial_fuel: None,
            forks: std::cell::Cell::new(0),
            obs: None,
            cancel: None,
            cancelled: false,
        }
    }

    /// Creates a context whose executions may consume at most `fuel` work
    /// units before being reported as hung.
    #[must_use]
    pub fn with_fuel(seed: u64, fuel: u64) -> Self {
        Self {
            rng: SplitMix64::new(seed),
            cost: Cost::ZERO,
            fuel: Some(fuel),
            initial_fuel: Some(fuel),
            forks: std::cell::Cell::new(0),
            obs: None,
            cancel: None,
            cancelled: false,
        }
    }

    /// Attaches a cancellation token: once it fires, every
    /// [`charge`](Self::charge) on this context (and its forks) fails, so
    /// a cooperative variant winds down at its next metering point.
    #[must_use]
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// A fresh token for the children of a threaded pattern run on this
    /// context, linked to the token this context carries: firing either
    /// one stops them, so a verdict fixed by an enclosing pattern (or a
    /// chaos fuse) still reaches a nested pattern's variants.
    pub(crate) fn child_cancel_token(&self) -> CancelToken {
        CancelToken {
            parent: self.cancel.clone().map(Arc::new),
            ..CancelToken::default()
        }
    }

    /// Whether a fired cancellation token interrupted this context (as
    /// opposed to genuine fuel exhaustion).
    #[must_use]
    pub fn was_cancelled(&self) -> bool {
        self.cancelled
    }

    /// Attaches an observer: every pattern engine and technique running
    /// under this context (and its joined forks) will emit structured
    /// events. A disabled observer is not attached at all.
    #[must_use]
    pub fn with_observer(self, observer: Arc<dyn Observer>) -> Self {
        self.with_obs_handle(ObsHandle::new(observer))
    }

    /// Attaches an already-built handle (shares its span-id allocator,
    /// e.g. to number a campaign's trials in one id space). This
    /// context's own events go straight to the handle; each joined fork's
    /// events go to its observer as one batch.
    #[must_use]
    pub fn with_obs_handle(mut self, handle: ObsHandle) -> Self {
        self.obs = handle.enabled().then(|| Trace::forwarding(handle));
        self
    }

    /// Records into `trace` — typically a buffering [`Trace`] recycled
    /// across a campaign worker's trials. Take it back with
    /// [`take_trace`](Self::take_trace).
    #[must_use]
    pub fn with_trace(mut self, trace: Trace) -> Self {
        self.obs = Some(trace);
        self
    }

    /// Detaches the trace, leaving this context untraced.
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.obs.take()
    }

    /// Whether a trace is attached. Instrumentation uses this to skip
    /// building event payloads.
    #[must_use]
    pub fn observed(&self) -> bool {
        self.obs.is_some()
    }

    /// Opens an observability span at the current virtual time. Returns
    /// `None` (for free) when untraced; the kind closure only runs when
    /// traced.
    pub fn obs_begin(&mut self, kind: impl FnOnce() -> SpanKind) -> Option<SpanToken> {
        let clock = self.cost.virtual_ns;
        self.obs.as_mut().map(|trace| trace.begin_span(clock, kind))
    }

    /// Closes a span opened by [`obs_begin`](Self::obs_begin), attributing
    /// `cost` (typically a [`Cost::delta_since`] of the span's start).
    pub fn obs_end(&mut self, token: Option<SpanToken>, status: SpanStatus, cost: CostSnapshot) {
        if let (Some(token), Some(trace)) = (token, self.obs.as_mut()) {
            trace.end_span(token, self.cost.virtual_ns, status, cost);
        }
    }

    /// Emits a point event at the current virtual time; the closure only
    /// runs when traced.
    pub fn obs_emit(&mut self, point: impl FnOnce() -> Point) {
        if let Some(trace) = self.obs.as_mut() {
            trace.emit(self.cost.virtual_ns, point);
        }
    }

    /// The deterministic random stream of this context.
    pub fn rng(&mut self) -> &mut SplitMix64 {
        &mut self.rng
    }

    /// Charges `units` of work (and the same amount of virtual time).
    ///
    /// # Errors
    ///
    /// Returns [`FuelExhausted`] when a fuel budget is configured and the
    /// charge does not fit in the remaining budget.
    pub fn charge(&mut self, units: u64) -> Result<(), FuelExhausted> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                // The verdict is already fixed: abandon the remaining work
                // without charging for it. `run_contained` turns the
                // resulting failure into `VariantFailure::Cancelled`.
                self.cancelled = true;
                return Err(FuelExhausted);
            }
        }
        if let Some(fuel) = self.fuel.as_mut() {
            if *fuel < units {
                // Consume what is left: the hung execution did burn it.
                self.cost.work_units += *fuel;
                self.cost.virtual_ns += *fuel;
                *fuel = 0;
                let consumed = self.cost.work_units;
                self.obs_emit(|| Point::FuelExhausted { consumed });
                return Err(FuelExhausted);
            }
            *fuel -= units;
        }
        self.cost.work_units += units;
        self.cost.virtual_ns += units;
        Ok(())
    }

    /// Advances virtual time without consuming work or fuel (e.g. network
    /// latency in the service substrate).
    pub fn advance_ns(&mut self, ns: u64) {
        self.cost.virtual_ns += ns;
    }

    /// Records one variant invocation with the given design cost.
    pub fn record_invocation(&mut self, design_cost: f64) {
        self.cost.invocations += 1;
        self.cost.design_cost += design_cost;
    }

    /// Cost accumulated so far.
    #[must_use]
    pub fn cost(&self) -> Cost {
        self.cost
    }

    /// Remaining fuel, or `None` when unlimited.
    #[must_use]
    pub fn remaining_fuel(&self) -> Option<u64> {
        self.fuel
    }

    /// Resets cost to zero and refills fuel to its initial budget, keeping
    /// the random stream position (a fresh attempt in the same experiment).
    pub fn reset_metering(&mut self) {
        self.cost = Cost::ZERO;
        self.fuel = self.initial_fuel;
    }

    /// Takes the accumulated cost out of the context, leaving zero.
    pub fn take_cost(&mut self) -> Cost {
        std::mem::replace(&mut self.cost, Cost::ZERO)
    }

    /// Derives an independent child context keyed by `stream`, with fresh
    /// cost metering and a full fuel budget.
    ///
    /// Each call advances an internal fork counter that is folded into the
    /// child's stream: forking in a loop (one child per retry, per variant,
    /// per request) yields fresh randomness every time, while the overall
    /// sequence stays a pure function of the seed — results do not depend
    /// on thread scheduling, only on fork order, which pattern engines fix
    /// by forking before spawning.
    ///
    /// A traced context gives the child a trace of its own (recycled from
    /// earlier joins), whose spans nest under the span this context is in.
    /// **Join every traced fork:** pass the child to
    /// [`join`](Self::join) after its last use and before this context
    /// records again, or its events are lost. A debug build panics when a
    /// child still holding events is dropped (unless it is unwinding).
    #[must_use]
    pub fn fork(&self, stream: u64) -> ExecContext {
        let n = self.forks.get();
        self.forks.set(n.wrapping_add(1));
        ExecContext {
            rng: self.rng.fork(stream).fork(n),
            cost: Cost::ZERO,
            fuel: self.initial_fuel,
            initial_fuel: self.initial_fuel,
            forks: std::cell::Cell::new(0),
            // The fork counter and rng above are computed identically
            // whether or not a trace is attached.
            obs: self.obs.as_ref().map(Trace::fork),
            // Children inherit the token so nested patterns stop too. A
            // threaded pattern engine then swaps in its own token, linked
            // to this one by `child_cancel_token`. The clone is a few Arc
            // refcount bumps, paid only by cancellable runs.
            cancel: self.cancel.clone(),
            cancelled: false,
        }
    }

    /// Splices a [`fork`](Self::fork)ed child's events into this
    /// context's trace, in program order, as if they had been recorded
    /// here. Costs are not touched: charge them as the pattern's cost
    /// model says (`add_sequential_cost`, `add_parallel_costs`). Free
    /// when untraced.
    pub fn join(&mut self, child: ExecContext) {
        if let (Some(trace), Some(child)) = (self.obs.as_mut(), child.obs) {
            trace.join(child);
        }
    }

    /// Adds a cost as a *sequential* contribution (e.g. a completed child
    /// execution whose cost was metered separately).
    pub fn add_sequential_cost(&mut self, cost: Cost) {
        self.cost = self.cost.sequential(cost);
    }

    /// Adds several costs as *parallel* contributions: work and invocations
    /// sum, virtual time takes the critical path.
    pub fn add_parallel_costs<I: IntoIterator<Item = Cost>>(&mut self, costs: I) {
        let mut combined = Cost::ZERO;
        for cost in costs {
            combined = combined.parallel(cost);
        }
        self.cost = self.cost.sequential(combined);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_fuel_never_exhausts() {
        let mut ctx = ExecContext::new(1);
        for _ in 0..1000 {
            ctx.charge(1_000_000).unwrap();
        }
        assert_eq!(ctx.cost().work_units, 1_000_000_000);
    }

    #[test]
    fn fuel_exhaustion_reported_and_burned() {
        let mut ctx = ExecContext::with_fuel(1, 100);
        ctx.charge(60).unwrap();
        assert_eq!(ctx.remaining_fuel(), Some(40));
        assert_eq!(ctx.charge(60), Err(FuelExhausted));
        // The hung execution consumed the remaining budget.
        assert_eq!(ctx.remaining_fuel(), Some(0));
        assert_eq!(ctx.cost().work_units, 100);
    }

    #[test]
    fn reset_metering_refills_fuel() {
        let mut ctx = ExecContext::with_fuel(1, 50);
        let _ = ctx.charge(50);
        ctx.reset_metering();
        assert_eq!(ctx.remaining_fuel(), Some(50));
        assert_eq!(ctx.cost(), Cost::ZERO);
    }

    #[test]
    fn forks_are_deterministic_but_never_repeat() {
        // Same seed, same fork sequence -> identical children.
        let ctx1 = ExecContext::new(99);
        let ctx2 = ExecContext::new(99);
        let mut a1 = ctx1.fork(1);
        let mut a2 = ctx2.fork(1);
        assert_eq!(a1.rng().next_u64(), a2.rng().next_u64());
        // Within one context, repeated forks (even on the same stream)
        // yield fresh randomness: retries must not replay the transient
        // conditions of the failed attempt.
        let mut r1 = ctx1.fork(7);
        let mut r2 = ctx1.fork(7);
        assert_ne!(r1.rng().next_u64(), r2.rng().next_u64());
        // Distinct streams at the same position differ too.
        let ctx3 = ExecContext::new(99);
        let mut b = ctx3.fork(2);
        let mut a3 = ExecContext::new(99).fork(1);
        assert_ne!(a3.rng().next_u64(), b.rng().next_u64());
    }

    #[test]
    fn add_parallel_costs_uses_critical_path() {
        let mut parent = ExecContext::new(5);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        c1.charge(30).unwrap();
        c2.charge(70).unwrap();
        parent.add_parallel_costs([c1.cost(), c2.cost()]);
        assert_eq!(parent.cost().virtual_ns, 70);
        assert_eq!(parent.cost().work_units, 100);
    }

    #[test]
    fn add_sequential_cost_adds() {
        let mut parent = ExecContext::new(5);
        let mut c = parent.fork(1);
        c.charge(40).unwrap();
        parent.add_sequential_cost(c.cost());
        parent.add_sequential_cost(c.cost());
        assert_eq!(parent.cost().virtual_ns, 80);
    }

    #[test]
    fn observer_does_not_perturb_randomness_or_forks() {
        use redundancy_obs::RingBufferObserver;

        let plain = ExecContext::new(1234);
        let traced = ExecContext::new(1234).with_observer(RingBufferObserver::shared(64));
        let mut p1 = plain.fork(3);
        let mut t1 = traced.fork(3);
        assert_eq!(p1.rng().next_u64(), t1.rng().next_u64());
        let mut p2 = plain.fork(3);
        let mut t2 = traced.fork(3);
        assert_eq!(p2.rng().next_u64(), t2.rng().next_u64());
    }

    #[test]
    fn fuel_exhaustion_emits_point() {
        use redundancy_obs::{EventKind, Point, RingBufferObserver};

        let ring = RingBufferObserver::shared(16);
        let mut ctx = ExecContext::with_fuel(1, 100).with_observer(ring.clone());
        assert!(ctx.observed());
        ctx.charge(60).unwrap();
        assert_eq!(ctx.charge(60), Err(FuelExhausted));
        let events = ring.events();
        assert_eq!(events.len(), 1);
        assert!(matches!(
            events[0].kind,
            EventKind::Point(Point::FuelExhausted { consumed: 100 })
        ));
        assert_eq!(events[0].clock, 100, "emitted at post-burn virtual time");
    }

    #[test]
    fn spans_nest_across_forks() {
        use redundancy_obs::{RingBufferObserver, SpanKind, SpanStatus};

        let ring = RingBufferObserver::shared(16);
        let mut ctx = ExecContext::new(7).with_observer(ring.clone());
        let outer = ctx.obs_begin(|| SpanKind::Technique { name: "t" });
        let mut child = ctx.fork(1);
        let inner = child.obs_begin(|| SpanKind::Variant { name: "v".into() });
        child.obs_end(inner, SpanStatus::Ok, Cost::ZERO.snapshot());
        ctx.join(child);
        ctx.obs_end(outer, SpanStatus::Ok, ctx.cost().snapshot());
        let events = ring.events();
        assert_eq!(events.len(), 4);
        // The child's span is parented under the technique span.
        assert_eq!(events[1].parent, events[0].span);
    }

    #[test]
    fn an_untraced_context_pays_one_pointer_for_its_trace() {
        assert_eq!(
            std::mem::size_of::<Option<Trace>>(),
            std::mem::size_of::<usize>()
        );
        let quiet = ExecContext::new(1).with_observer(Arc::new(redundancy_obs::NoopObserver));
        assert!(!quiet.observed(), "a disabled observer is not attached");
    }

    #[test]
    fn untraced_context_skips_closures() {
        let mut ctx = ExecContext::new(0);
        assert!(!ctx.observed());
        let token = ctx.obs_begin(|| unreachable!("untraced: kind closure must not run"));
        assert!(token.is_none());
        ctx.obs_emit(|| unreachable!("untraced: point closure must not run"));
    }

    #[test]
    fn cancel_token_interrupts_charges() {
        let token = CancelToken::new();
        let mut ctx = ExecContext::new(1).with_cancel_token(token.clone());
        ctx.charge(10).unwrap();
        assert!(!ctx.was_cancelled());
        token.cancel();
        assert!(token.is_cancelled());
        assert_eq!(ctx.charge(10), Err(FuelExhausted));
        assert!(ctx.was_cancelled());
        // The abandoned charge is not billed.
        assert_eq!(ctx.cost().work_units, 10);
    }

    #[test]
    fn cancel_token_reaches_forked_children() {
        let token = CancelToken::new();
        let ctx = ExecContext::new(1).with_cancel_token(token.clone());
        let mut child = ctx.fork(0).fork(3);
        token.cancel();
        assert_eq!(child.charge(1), Err(FuelExhausted));
        assert!(child.was_cancelled());
    }

    #[test]
    fn cancel_after_fires_on_the_nth_charge() {
        let token = CancelToken::cancel_after(3);
        let mut ctx = ExecContext::new(u64::MAX).with_cancel_token(token.clone());
        ctx.charge(1).unwrap();
        ctx.charge(1).unwrap();
        assert!(!ctx.was_cancelled());
        // The third charge check consumes the last fuse unit.
        assert_eq!(ctx.charge(1), Err(FuelExhausted));
        assert!(ctx.was_cancelled());
        // Once blown the token stays fired without further fuse math.
        assert!(token.is_cancelled());
        assert!(token.is_cancelled());
    }

    #[test]
    fn cancel_after_zero_is_clamped_to_the_first_check() {
        let mut ctx = ExecContext::new(u64::MAX).with_cancel_token(CancelToken::cancel_after(0));
        assert_eq!(ctx.charge(1), Err(FuelExhausted));
    }

    #[test]
    fn contexts_without_token_ignore_cancellation() {
        let mut ctx = ExecContext::new(1);
        ctx.charge(5).unwrap();
        assert!(!ctx.was_cancelled());
    }

    #[test]
    fn record_invocation_counts() {
        let mut ctx = ExecContext::new(0);
        ctx.record_invocation(2.5);
        ctx.record_invocation(1.5);
        assert_eq!(ctx.cost().invocations, 2);
        assert!((ctx.cost().design_cost - 4.0).abs() < 1e-9);
    }
}
