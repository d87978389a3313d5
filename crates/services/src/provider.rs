//! Service providers: independently operated implementations of an
//! interface, with reliability and latency profiles.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use redundancy_core::context::ExecContext;
use redundancy_core::rng::SplitMix64;

use crate::registry::InterfaceId;
use crate::value::Value;

/// A failure reported by a service invocation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ServiceError {
    /// The provider did not respond (server or network down).
    Unavailable,
    /// The provider responded with a fault.
    Fault(String),
    /// The operation does not exist on this provider.
    NoSuchOperation(String),
    /// The arguments were rejected.
    BadRequest(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Unavailable => f.write_str("service unavailable"),
            ServiceError::Fault(msg) => write!(f, "service fault: {msg}"),
            ServiceError::NoSuchOperation(op) => write!(f, "no such operation: {op}"),
            ServiceError::BadRequest(msg) => write!(f, "bad request: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// A service implementation.
pub trait Provider: Send + Sync {
    /// Unique provider id (e.g. `"weather.acme.v2"`).
    fn id(&self) -> &str;

    /// The interface this provider implements.
    fn interface(&self) -> &InterfaceId;

    /// Invokes an operation.
    ///
    /// # Errors
    ///
    /// Returns a [`ServiceError`] for unavailability, faults, unknown
    /// operations or bad requests. Wrong *results* are returned as `Ok` —
    /// catching those requires adjudication upstream.
    fn invoke(
        &self,
        operation: &str,
        args: &[Value],
        ctx: &mut ExecContext,
    ) -> Result<Value, ServiceError>;
}

type OpHandler =
    Box<dyn Fn(&[Value], &mut SplitMix64) -> Result<Value, ServiceError> + Send + Sync>;

/// A fully decided invocation: how long it will take (virtual ns) and
/// what it will return, computed *before* any time passes.
///
/// The synchronous [`Provider::invoke`] path charges the latency to its
/// `ExecContext` immediately; the event-loop runtime instead schedules a
/// completion event `latency_ns` in the virtual future and keeps
/// thousands of such planned invokes in flight at once. Both paths draw
/// from the same RNG stream in the same order, so a provider behaves
/// identically whichever engine drives it.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedInvoke {
    /// Virtual nanoseconds until the response lands.
    pub latency_ns: u64,
    /// The response (wrong *results* are still `Ok` — adjudication is
    /// upstream's job).
    pub result: Result<Value, ServiceError>,
}

/// A simulated provider built from per-operation closures and a
/// reliability/latency profile.
///
/// # Examples
///
/// ```
/// use redundancy_core::context::ExecContext;
/// use redundancy_services::provider::{Provider, SimProvider};
/// use redundancy_services::registry::InterfaceId;
/// use redundancy_services::value::Value;
///
/// let provider = SimProvider::builder("adder.v1", InterfaceId::new("math"))
///     .operation("add", |args, _rng| {
///         let a = args[0].as_int().unwrap();
///         let b = args[1].as_int().unwrap();
///         Ok(Value::Int(a + b))
///     })
///     .build();
/// let mut ctx = ExecContext::new(0);
/// let out = provider.invoke("add", &[Value::Int(2), Value::Int(3)], &mut ctx);
/// assert_eq!(out, Ok(Value::Int(5)));
/// ```
pub struct SimProvider {
    id: String,
    interface: InterfaceId,
    /// Named handlers, scanned on every plan: pools register one to a
    /// few operations, where a scan beats hashing the name.
    operations: Vec<(String, OpHandler)>,
    fail_prob: f64,
    latency_work: u64,
    latency_jitter: u64,
    /// Probability that an invocation hits a latency spike.
    spike_prob: f64,
    /// Extra virtual ns a spiked invocation costs.
    spike_ns: u64,
    /// Invocations served (drives optional wear-out).
    calls: AtomicU64,
    /// Per-call increase in failure probability (service degradation).
    wear_out: f64,
}

impl SimProvider {
    /// Starts building a provider.
    #[must_use]
    pub fn builder(id: impl Into<String>, interface: InterfaceId) -> SimProviderBuilder {
        SimProviderBuilder {
            inner: SimProvider {
                id: id.into(),
                interface,
                operations: Vec::new(),
                fail_prob: 0.0,
                latency_work: 10,
                latency_jitter: 0,
                spike_prob: 0.0,
                spike_ns: 0,
                calls: AtomicU64::new(0),
                wear_out: 0.0,
            },
        }
    }

    /// Invocations served so far.
    #[must_use]
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// The provider's current effective failure probability.
    #[must_use]
    pub fn effective_fail_prob(&self) -> f64 {
        (self.fail_prob + self.wear_out * self.calls() as f64).min(1.0)
    }

    /// Decides one invocation — latency and response — without charging
    /// any `ExecContext`, drawing all randomness from `rng`.
    ///
    /// This is the single source of truth for the provider's behavior:
    /// [`Provider::invoke`] delegates here and then charges the planned
    /// latency synchronously, while the event-loop runtime schedules the
    /// completion in virtual time. The RNG draw order is pinned (jitter
    /// if configured, spike if configured, failure, handler split) so
    /// seeded results never drift between the two engines.
    pub fn plan_invoke(
        &self,
        operation: &str,
        args: &[Value],
        rng: &mut SplitMix64,
    ) -> PlannedInvoke {
        let Some((_, handler)) = self.operations.iter().find(|(name, _)| name == operation) else {
            // Unknown operations are rejected before any time passes,
            // any draw happens, or the call counter moves.
            return PlannedInvoke {
                latency_ns: 0,
                result: Err(ServiceError::NoSuchOperation(operation.to_owned())),
            };
        };
        let fail_prob = self.effective_fail_prob();
        self.calls.fetch_add(1, Ordering::Relaxed);
        // Latency: base work plus jitter plus the occasional spike.
        let jitter = if self.latency_jitter > 0 {
            rng.range_u64(0, self.latency_jitter + 1)
        } else {
            0
        };
        let spike = if self.spike_prob > 0.0 && rng.chance(self.spike_prob) {
            self.spike_ns
        } else {
            0
        };
        let latency_ns = self.latency_work + jitter + spike;
        if rng.chance(fail_prob) {
            return PlannedInvoke {
                latency_ns,
                result: Err(ServiceError::Unavailable),
            };
        }
        let mut handler_rng = rng.split();
        PlannedInvoke {
            latency_ns,
            result: handler(args, &mut handler_rng),
        }
    }
}

impl Provider for SimProvider {
    fn id(&self) -> &str {
        &self.id
    }

    fn interface(&self) -> &InterfaceId {
        &self.interface
    }

    fn invoke(
        &self,
        operation: &str,
        args: &[Value],
        ctx: &mut ExecContext,
    ) -> Result<Value, ServiceError> {
        let planned = self.plan_invoke(operation, args, ctx.rng());
        ctx.advance_ns(planned.latency_ns);
        planned.result
    }
}

/// Builder for [`SimProvider`].
pub struct SimProviderBuilder {
    inner: SimProvider,
}

impl SimProviderBuilder {
    /// Adds an operation; registering a name again replaces its
    /// handler.
    #[must_use]
    pub fn operation<F>(mut self, name: impl Into<String>, handler: F) -> Self
    where
        F: Fn(&[Value], &mut SplitMix64) -> Result<Value, ServiceError> + Send + Sync + 'static,
    {
        let name = name.into();
        let handler: OpHandler = Box::new(handler);
        match self.inner.operations.iter_mut().find(|(n, _)| *n == name) {
            Some(entry) => entry.1 = handler,
            None => self.inner.operations.push((name, handler)),
        }
        self
    }

    /// Sets the per-invocation failure probability (unavailability).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    #[must_use]
    pub fn fail_prob(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.inner.fail_prob = p;
        self
    }

    /// Sets the base latency (virtual ns) and jitter.
    #[must_use]
    pub fn latency(mut self, base: u64, jitter: u64) -> Self {
        self.inner.latency_work = base;
        self.inner.latency_jitter = jitter;
        self
    }

    /// Makes a fraction `prob` of invocations cost `extra_ns` more —
    /// the heavy-tailed latency profile hedged requests exist to beat.
    ///
    /// # Panics
    ///
    /// Panics if `prob` is outside `[0, 1]`.
    #[must_use]
    pub fn latency_spike(mut self, prob: f64, extra_ns: u64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "probability must be in [0, 1]");
        self.inner.spike_prob = prob;
        self.inner.spike_ns = extra_ns;
        self
    }

    /// Sets per-call degradation of the failure probability.
    #[must_use]
    pub fn wear_out(mut self, per_call: f64) -> Self {
        self.inner.wear_out = per_call;
        self
    }

    /// Finishes the build.
    #[must_use]
    pub fn build(self) -> SimProvider {
        self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adder(id: &str, fail: f64) -> SimProvider {
        SimProvider::builder(id, InterfaceId::new("math"))
            .fail_prob(fail)
            .operation("add", |args, _| {
                let a = args
                    .first()
                    .and_then(Value::as_int)
                    .ok_or_else(|| ServiceError::BadRequest("need int".into()))?;
                let b = args
                    .get(1)
                    .and_then(Value::as_int)
                    .ok_or_else(|| ServiceError::BadRequest("need int".into()))?;
                Ok(Value::Int(a + b))
            })
            .build()
    }

    #[test]
    fn invoke_dispatches_operations() {
        let p = adder("a1", 0.0);
        let mut ctx = ExecContext::new(1);
        assert_eq!(
            p.invoke("add", &[Value::Int(1), Value::Int(2)], &mut ctx),
            Ok(Value::Int(3))
        );
        assert_eq!(
            p.invoke("mul", &[], &mut ctx),
            Err(ServiceError::NoSuchOperation("mul".into()))
        );
    }

    #[test]
    fn registering_an_operation_again_replaces_its_handler() {
        let p = SimProvider::builder("v", InterfaceId::new("x"))
            .operation("op", |_, _| Ok(Value::Int(1)))
            .operation("other", |_, _| Ok(Value::Int(2)))
            .operation("op", |_, _| Ok(Value::Int(3)))
            .build();
        let mut rng = SplitMix64::new(1);
        assert_eq!(p.plan_invoke("op", &[], &mut rng).result, Ok(Value::Int(3)));
        assert_eq!(
            p.plan_invoke("other", &[], &mut rng).result,
            Ok(Value::Int(2))
        );
    }

    #[test]
    fn bad_request_propagates() {
        let p = adder("a1", 0.0);
        let mut ctx = ExecContext::new(1);
        assert!(matches!(
            p.invoke("add", &[Value::Null, Value::Null], &mut ctx),
            Err(ServiceError::BadRequest(_))
        ));
    }

    #[test]
    fn failure_rate_is_calibrated() {
        let p = adder("flaky", 0.3);
        let mut ctx = ExecContext::new(2);
        let failures = (0..10_000)
            .filter(|_| {
                p.invoke("add", &[Value::Int(1), Value::Int(1)], &mut ctx)
                    .is_err()
            })
            .count();
        let rate = failures as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.02, "observed {rate}");
    }

    #[test]
    fn latency_advances_virtual_time() {
        let p = SimProvider::builder("slow", InterfaceId::new("x"))
            .latency(500, 0)
            .operation("op", |_, _| Ok(Value::Null))
            .build();
        let mut ctx = ExecContext::new(1);
        let _ = p.invoke("op", &[], &mut ctx);
        assert_eq!(ctx.cost().virtual_ns, 500);
    }

    #[test]
    fn wear_out_degrades_provider() {
        let p = SimProvider::builder("aging", InterfaceId::new("x"))
            .wear_out(0.001)
            .operation("op", |_, _| Ok(Value::Null))
            .build();
        let mut ctx = ExecContext::new(3);
        assert!((p.effective_fail_prob() - 0.0).abs() < f64::EPSILON);
        for _ in 0..500 {
            let _ = p.invoke("op", &[], &mut ctx);
        }
        assert!(p.effective_fail_prob() > 0.4);
        assert_eq!(p.calls(), 500);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_fail_prob_panics() {
        let _ = SimProvider::builder("x", InterfaceId::new("i")).fail_prob(1.5);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_spike_prob_panics() {
        let _ = SimProvider::builder("x", InterfaceId::new("i")).latency_spike(-0.1, 10);
    }

    #[test]
    fn latency_spikes_fatten_the_tail() {
        let p = SimProvider::builder("spiky", InterfaceId::new("x"))
            .latency(100, 0)
            .latency_spike(0.1, 10_000)
            .operation("op", |_, _| Ok(Value::Null))
            .build();
        let mut rng = SplitMix64::new(7);
        let mut spiked = 0usize;
        for _ in 0..10_000 {
            let planned = p.plan_invoke("op", &[], &mut rng);
            assert!(planned.latency_ns == 100 || planned.latency_ns == 10_100);
            if planned.latency_ns > 100 {
                spiked += 1;
            }
        }
        let rate = spiked as f64 / 10_000.0;
        assert!((rate - 0.1).abs() < 0.02, "observed spike rate {rate}");
    }

    #[test]
    fn plan_and_invoke_agree_on_the_same_stream() {
        // The synchronous path must be plan + charge, nothing more: the
        // same seed gives the same responses and total virtual time.
        let build = || {
            SimProvider::builder("twin", InterfaceId::new("x"))
                .fail_prob(0.3)
                .latency(200, 50)
                .operation("op", |_, rng| Ok(Value::Int(rng.range_u64(0, 100) as i64)))
                .build()
        };
        // ExecContext::new(seed) seeds SplitMix64::new(seed), so a bare
        // rng and a context starting from the same seed share a stream:
        // plan through one, invoke through the other, compare exactly.
        let (planner, invoker) = (build(), build());
        let mut plan_rng = SplitMix64::new(9);
        let mut ctx = ExecContext::new(9);
        let mut total_ns = 0u64;
        for _ in 0..500 {
            let planned = planner.plan_invoke("op", &[], &mut plan_rng);
            let direct = invoker.invoke("op", &[], &mut ctx);
            assert_eq!(planned.result, direct);
            total_ns += planned.latency_ns;
        }
        assert_eq!(ctx.cost().virtual_ns, total_ns);
        assert_eq!(planner.calls(), invoker.calls());
    }

    #[test]
    fn unknown_operation_plans_without_cost_or_call_count() {
        let p = adder("a1", 0.0);
        let mut rng = SplitMix64::new(1);
        let planned = p.plan_invoke("mul", &[], &mut rng);
        assert_eq!(planned.latency_ns, 0);
        assert_eq!(
            planned.result,
            Err(ServiceError::NoSuchOperation("mul".into()))
        );
        assert_eq!(p.calls(), 0);
    }
}
