//! A small BPEL-like process engine.
//!
//! The engine supports the constructs the surveyed techniques rely on:
//! `invoke` (with dynamic binding through the registry), `assign`,
//! `sequence`, parallel `flow`, `retry` (Dobson's recovery-block analogue)
//! and `scope` with a fault handler (the registry-based recovery actions
//! of Baresi and Pernici attach here).

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use redundancy_core::context::ExecContext;

use crate::provider::{Provider, ServiceError};
use crate::recovery::Backoff;
use crate::registry::{InterfaceId, ServiceRegistry};
use crate::value::Value;

/// Process variables.
pub type Vars = BTreeMap<String, Value>;

/// An expression usable in activity arguments.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal value.
    Lit(Value),
    /// The value of a process variable.
    Var(String),
}

impl Expr {
    /// Evaluates the expression against the variables.
    ///
    /// # Errors
    ///
    /// Returns [`ProcessError::MissingVariable`] for unbound variables.
    pub fn eval(&self, vars: &Vars) -> Result<Value, ProcessError> {
        match self {
            Expr::Lit(v) => Ok(v.clone()),
            Expr::Var(name) => vars
                .get(name)
                .cloned()
                .ok_or_else(|| ProcessError::MissingVariable(name.clone())),
        }
    }
}

/// A process activity (the BPEL subset the surveyed techniques need).
#[derive(Debug, Clone, PartialEq)]
pub enum Activity {
    /// Invoke an operation on some provider of `interface`, storing the
    /// result in `result_var` (when given).
    Invoke {
        /// Target interface.
        interface: InterfaceId,
        /// Operation name.
        operation: String,
        /// Argument expressions.
        args: Vec<Expr>,
        /// Variable receiving the result.
        result_var: Option<String>,
    },
    /// Assign an expression to a variable.
    Assign {
        /// Target variable.
        var: String,
        /// Source expression.
        expr: Expr,
    },
    /// Run activities one after another.
    Sequence(Vec<Activity>),
    /// Run activities "in parallel" (BPEL flow): every branch executes;
    /// virtual time is the critical path; variable writes apply in branch
    /// order.
    Flow(Vec<Activity>),
    /// Retry the inner activity up to `attempts` times on failure,
    /// charging `backoff` between attempts as exact virtual time.
    Retry {
        /// The activity to retry.
        inner: Box<Activity>,
        /// Maximum attempts (≥ 1).
        attempts: u32,
        /// Virtual-time pause schedule between attempts.
        backoff: Backoff,
    },
    /// Run `inner`; if it fails, run `handler` (fault handler).
    Scope {
        /// The protected activity.
        inner: Box<Activity>,
        /// The compensation/fault handler.
        handler: Box<Activity>,
    },
}

/// Convenience constructors.
impl Activity {
    /// An `Invoke` storing its result in `result_var`.
    #[must_use]
    pub fn invoke(
        interface: impl Into<InterfaceId>,
        operation: impl Into<String>,
        args: Vec<Expr>,
        result_var: impl Into<String>,
    ) -> Activity {
        Activity::Invoke {
            interface: interface.into(),
            operation: operation.into(),
            args,
            result_var: Some(result_var.into()),
        }
    }

    /// A sequence of activities.
    #[must_use]
    pub fn seq(activities: Vec<Activity>) -> Activity {
        Activity::Sequence(activities)
    }

    /// A `Retry` with immediate (no-backoff) reattempts.
    #[must_use]
    pub fn retry(inner: Activity, attempts: u32) -> Activity {
        Activity::Retry {
            inner: Box::new(inner),
            attempts,
            backoff: Backoff::None,
        }
    }

    /// A `Retry` pausing on `backoff`'s virtual-time schedule between
    /// attempts.
    #[must_use]
    pub fn retry_with_backoff(inner: Activity, attempts: u32, backoff: Backoff) -> Activity {
        Activity::Retry {
            inner: Box::new(inner),
            attempts,
            backoff,
        }
    }
}

/// A process execution error.
#[derive(Debug, Clone, PartialEq)]
pub enum ProcessError {
    /// No provider could serve the invoke.
    InvokeFailed {
        /// The interface that failed.
        interface: InterfaceId,
        /// The operation that failed.
        operation: String,
        /// The last provider error observed.
        last_error: ServiceError,
    },
    /// No provider is registered for the interface.
    Unbound(InterfaceId),
    /// An expression referenced an unbound variable.
    MissingVariable(String),
}

impl fmt::Display for ProcessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProcessError::InvokeFailed {
                interface,
                operation,
                last_error,
            } => write!(f, "invoke {interface}.{operation} failed: {last_error}"),
            ProcessError::Unbound(interface) => {
                write!(f, "no provider bound for interface {interface}")
            }
            ProcessError::MissingVariable(name) => write!(f, "missing variable {name}"),
        }
    }
}

impl std::error::Error for ProcessError {}

/// Chooses which providers to try for an invoke, in order.
///
/// The default [`Binder::Static`] uses only the first registered provider
/// — the baseline whose fragility dynamic service substitution fixes (the
/// substituting binder lives in `redundancy-techniques`).
pub enum Binder {
    /// Only the first registered provider.
    Static,
    /// All providers of the interface, in registration order (plain
    /// fail-over without converters).
    Failover,
    /// Custom candidate selection.
    Custom(
        #[allow(clippy::type_complexity)]
        Box<dyn Fn(&ServiceRegistry, &InterfaceId) -> Vec<Arc<dyn Provider>> + Send + Sync>,
    ),
}

impl fmt::Debug for Binder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Binder::Static => f.write_str("Binder::Static"),
            Binder::Failover => f.write_str("Binder::Failover"),
            Binder::Custom(_) => f.write_str("Binder::Custom(..)"),
        }
    }
}

impl Binder {
    fn candidates(
        &self,
        registry: &ServiceRegistry,
        interface: &InterfaceId,
    ) -> Vec<Arc<dyn Provider>> {
        match self {
            Binder::Static => registry
                .providers_of(interface)
                .into_iter()
                .take(1)
                .collect(),
            Binder::Failover => registry.providers_of(interface),
            Binder::Custom(f) => f(registry, interface),
        }
    }
}

/// The process engine.
#[derive(Debug)]
pub struct Engine<'r> {
    registry: &'r ServiceRegistry,
    binder: Binder,
}

impl<'r> Engine<'r> {
    /// Creates an engine with static binding.
    #[must_use]
    pub fn new(registry: &'r ServiceRegistry) -> Self {
        Self {
            registry,
            binder: Binder::Static,
        }
    }

    /// Selects the binding policy.
    #[must_use]
    pub fn with_binder(mut self, binder: Binder) -> Self {
        self.binder = binder;
        self
    }

    /// Executes an activity against the given variables.
    ///
    /// # Errors
    ///
    /// Returns a [`ProcessError`] when an invoke exhausts its candidate
    /// providers, an interface is unbound, or a variable is missing.
    pub fn run(
        &self,
        activity: &Activity,
        vars: &mut Vars,
        ctx: &mut ExecContext,
    ) -> Result<(), ProcessError> {
        match activity {
            Activity::Invoke {
                interface,
                operation,
                args,
                result_var,
            } => {
                let arg_values: Vec<Value> = args
                    .iter()
                    .map(|e| e.eval(vars))
                    .collect::<Result<_, _>>()?;
                let candidates = self.binder.candidates(self.registry, interface);
                if candidates.is_empty() {
                    return Err(ProcessError::Unbound(interface.clone()));
                }
                let mut last_error = ServiceError::Unavailable;
                for provider in candidates {
                    match provider.invoke(operation, &arg_values, ctx) {
                        Ok(result) => {
                            if let Some(var) = result_var {
                                vars.insert(var.clone(), result);
                            }
                            return Ok(());
                        }
                        Err(err) => last_error = err,
                    }
                }
                Err(ProcessError::InvokeFailed {
                    interface: interface.clone(),
                    operation: operation.clone(),
                    last_error,
                })
            }
            Activity::Assign { var, expr } => {
                let value = expr.eval(vars)?;
                vars.insert(var.clone(), value);
                Ok(())
            }
            Activity::Sequence(activities) => {
                for a in activities {
                    self.run(a, vars, ctx)?;
                }
                Ok(())
            }
            Activity::Flow(branches) => {
                // Execute each branch with forked metering; merge writes in
                // branch order; charge the critical path.
                let mut costs = Vec::with_capacity(branches.len());
                let mut first_error = None;
                for (i, branch) in branches.iter().enumerate() {
                    let mut child = ctx.fork(i as u64);
                    let result = self.run(branch, vars, &mut child);
                    costs.push(child.cost());
                    ctx.join(child);
                    if first_error.is_none() {
                        if let Err(e) = result {
                            first_error = Some(e);
                        }
                    }
                }
                ctx.add_parallel_costs(costs);
                match first_error {
                    Some(e) => Err(e),
                    None => Ok(()),
                }
            }
            Activity::Retry {
                inner,
                attempts,
                backoff,
            } => {
                let attempts = (*attempts).max(1);
                let mut last = None;
                for completed in 0..attempts {
                    ctx.advance_ns(backoff.delay_ns(completed));
                    match self.run(inner, vars, ctx) {
                        Ok(()) => return Ok(()),
                        Err(e) => last = Some(e),
                    }
                }
                Err(last.expect("at least one attempt"))
            }
            Activity::Scope { inner, handler } => match self.run(inner, vars, ctx) {
                Ok(()) => Ok(()),
                Err(_) => self.run(handler, vars, ctx),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::SimProvider;

    fn flaky_registry(fail: f64) -> ServiceRegistry {
        let mut reg = ServiceRegistry::new();
        reg.register(Arc::new(
            SimProvider::builder("p1", InterfaceId::new("math"))
                .fail_prob(fail)
                .operation("double", |args, _| {
                    Ok(Value::Int(args[0].as_int().unwrap_or(0) * 2))
                })
                .build(),
        ));
        reg.register(Arc::new(
            SimProvider::builder("p2", InterfaceId::new("math"))
                .operation("double", |args, _| {
                    Ok(Value::Int(args[0].as_int().unwrap_or(0) * 2))
                })
                .build(),
        ));
        reg
    }

    #[test]
    fn invoke_assign_sequence() {
        let reg = flaky_registry(0.0);
        let engine = Engine::new(&reg);
        let process = Activity::seq(vec![
            Activity::Assign {
                var: "x".into(),
                expr: Expr::Lit(Value::Int(21)),
            },
            Activity::invoke("math", "double", vec![Expr::Var("x".into())], "y"),
        ]);
        let mut vars = Vars::new();
        let mut ctx = ExecContext::new(1);
        engine.run(&process, &mut vars, &mut ctx).unwrap();
        assert_eq!(vars.get("y"), Some(&Value::Int(42)));
    }

    #[test]
    fn static_binding_fails_with_dead_primary() {
        let reg = flaky_registry(1.0); // p1 always down, p2 fine
        let engine = Engine::new(&reg); // static: only p1
        let process = Activity::invoke("math", "double", vec![Expr::Lit(Value::Int(1))], "y");
        let mut vars = Vars::new();
        let mut ctx = ExecContext::new(1);
        assert!(matches!(
            engine.run(&process, &mut vars, &mut ctx),
            Err(ProcessError::InvokeFailed { .. })
        ));
    }

    #[test]
    fn failover_binding_survives_dead_primary() {
        let reg = flaky_registry(1.0);
        let engine = Engine::new(&reg).with_binder(Binder::Failover);
        let process = Activity::invoke("math", "double", vec![Expr::Lit(Value::Int(5))], "y");
        let mut vars = Vars::new();
        let mut ctx = ExecContext::new(1);
        engine.run(&process, &mut vars, &mut ctx).unwrap();
        assert_eq!(vars.get("y"), Some(&Value::Int(10)));
    }

    #[test]
    fn retry_eventually_succeeds() {
        let reg = flaky_registry(0.6);
        let engine = Engine::new(&reg);
        let process = Activity::retry(
            Activity::invoke("math", "double", vec![Expr::Lit(Value::Int(3))], "y"),
            50,
        );
        let mut vars = Vars::new();
        let mut ctx = ExecContext::new(2);
        engine.run(&process, &mut vars, &mut ctx).unwrap();
        assert_eq!(vars.get("y"), Some(&Value::Int(6)));
    }

    #[test]
    fn retry_backoff_is_charged_as_exact_virtual_time() {
        // All providers dead: every attempt fails, so the retry walks
        // its full backoff schedule. With 10 ns per invoke (both
        // registered providers are tried per attempt under Failover)
        // the total cost is a closed-form number, not a measurement.
        let reg = {
            let mut reg = ServiceRegistry::new();
            for id in ["d1", "d2"] {
                reg.register(Arc::new(
                    SimProvider::builder(id, InterfaceId::new("math"))
                        .fail_prob(1.0)
                        .latency(10, 0)
                        .operation("double", |_, _| Ok(Value::Null))
                        .build(),
                ));
            }
            reg
        };
        let engine = Engine::new(&reg).with_binder(Binder::Failover);
        let process = Activity::retry_with_backoff(
            Activity::invoke("math", "double", vec![Expr::Lit(Value::Int(1))], "y"),
            3,
            Backoff::Exponential {
                base_ns: 1_000,
                factor: 3,
                cap_ns: 10_000,
            },
        );
        let mut vars = Vars::new();
        let mut ctx = ExecContext::new(4);
        assert!(engine.run(&process, &mut vars, &mut ctx).is_err());
        // 3 attempts x 2 providers x 10 ns, plus pauses 1000 and 3000
        // before attempts 2 and 3.
        assert_eq!(ctx.cost().virtual_ns, 3 * 2 * 10 + 1_000 + 3_000);
    }

    #[test]
    fn scope_handler_runs_on_fault() {
        let reg = flaky_registry(1.0);
        let engine = Engine::new(&reg);
        let process = Activity::Scope {
            inner: Box::new(Activity::invoke(
                "math",
                "double",
                vec![Expr::Lit(Value::Int(3))],
                "y",
            )),
            handler: Box::new(Activity::Assign {
                var: "y".into(),
                expr: Expr::Lit(Value::Int(-1)),
            }),
        };
        let mut vars = Vars::new();
        let mut ctx = ExecContext::new(1);
        engine.run(&process, &mut vars, &mut ctx).unwrap();
        assert_eq!(vars.get("y"), Some(&Value::Int(-1)));
    }

    #[test]
    fn flow_charges_critical_path_and_merges_writes() {
        let mut reg = ServiceRegistry::new();
        for (id, latency) in [("fast", 10u64), ("slow", 100)] {
            reg.register(Arc::new(
                SimProvider::builder(id, InterfaceId::new(id))
                    .latency(latency, 0)
                    .operation("op", |_, _| Ok(Value::Int(1)))
                    .build(),
            ));
        }
        let engine = Engine::new(&reg);
        let process = Activity::Flow(vec![
            Activity::invoke("fast", "op", vec![], "a"),
            Activity::invoke("slow", "op", vec![], "b"),
        ]);
        let mut vars = Vars::new();
        let mut ctx = ExecContext::new(1);
        engine.run(&process, &mut vars, &mut ctx).unwrap();
        assert_eq!(vars.get("a"), Some(&Value::Int(1)));
        assert_eq!(vars.get("b"), Some(&Value::Int(1)));
        assert_eq!(ctx.cost().virtual_ns, 100, "flow is critical-path timed");
    }

    #[test]
    fn unbound_interface_reported() {
        let reg = ServiceRegistry::new();
        let engine = Engine::new(&reg);
        let process = Activity::invoke("ghost", "op", vec![], "x");
        let mut vars = Vars::new();
        let mut ctx = ExecContext::new(1);
        assert_eq!(
            engine.run(&process, &mut vars, &mut ctx),
            Err(ProcessError::Unbound(InterfaceId::new("ghost")))
        );
    }

    #[test]
    fn missing_variable_reported() {
        let reg = flaky_registry(0.0);
        let engine = Engine::new(&reg);
        let process = Activity::invoke("math", "double", vec![Expr::Var("nope".into())], "y");
        let mut vars = Vars::new();
        let mut ctx = ExecContext::new(1);
        assert_eq!(
            engine.run(&process, &mut vars, &mut ctx),
            Err(ProcessError::MissingVariable("nope".into()))
        );
    }
}
