//! Dynamic service substitution (paper §5.1; Subramanian 2008, Taher
//! 2006, Sadjadi 2005, Mosincat 2008).
//!
//! Popular services have multiple independently operated implementations
//! — redundancy that exists *without* anyone designing it into the
//! application. When an invocation fails, the runtime discovers another
//! provider of the same interface (or, via converters, of a *similar*
//! interface) and transparently re-binds.
//!
//! Classification (Table 2): opportunistic / code / reactive-explicit /
//! development.

use std::sync::Arc;

use redundancy_core::context::ExecContext;
use redundancy_core::patterns::run_technique_span;
use redundancy_core::taxonomy::{
    Adjudication, ArchitecturalPattern, Classification, FaultSet, Intention, RedundancyType,
};
use redundancy_core::technique::TechniqueEntry;
use redundancy_services::provider::ServiceError;
use redundancy_services::registry::{InterfaceId, ServiceRegistry};
use redundancy_services::value::Value;

/// Table 2 row for dynamic service substitution.
pub const ENTRY: TechniqueEntry = TechniqueEntry {
    name: "Dynamic service substitution",
    classification: Classification::new(
        Intention::Opportunistic,
        RedundancyType::Code,
        Adjudication::ReactiveExplicit,
        FaultSet::DEVELOPMENT,
    ),
    patterns: &[ArchitecturalPattern::SequentialAlternatives],
    citations: &[
        "Subramanian 2008",
        "Taher 2006",
        "Sadjadi 2005",
        "Mosincat 2008",
    ],
};

/// How a substituted invocation concluded.
#[derive(Debug, Clone, PartialEq)]
pub struct SubstitutionReport {
    /// The result value.
    pub value: Value,
    /// Id of the provider that finally served the request.
    pub served_by: String,
    /// Providers tried before success (0 = primary worked).
    pub substitutions: usize,
    /// Whether an interface converter was needed.
    pub converted: bool,
}

/// The substitution runtime: exact-interface fail-over first, then
/// similar interfaces through converters.
pub struct DynamicSubstitution<'r> {
    registry: &'r ServiceRegistry,
    use_converters: bool,
}

impl<'r> DynamicSubstitution<'r> {
    /// Creates the runtime over a registry, converters enabled.
    #[must_use]
    pub fn new(registry: &'r ServiceRegistry) -> Self {
        Self {
            registry,
            use_converters: true,
        }
    }

    /// Disables converter-based substitution (exact interfaces only) —
    /// the ablation knob of experiment E12.
    #[must_use]
    pub fn without_converters(mut self) -> Self {
        self.use_converters = false;
        self
    }

    /// Invokes `operation` on some provider of `interface`, substituting
    /// on failure.
    ///
    /// # Errors
    ///
    /// Returns the last [`ServiceError`] when every candidate (exact and
    /// convertible) failed, or `Unavailable` when none exists.
    pub fn invoke(
        &self,
        interface: &InterfaceId,
        operation: &str,
        args: &[Value],
        ctx: &mut ExecContext,
    ) -> Result<SubstitutionReport, ServiceError> {
        use redundancy_core::obs::SpanStatus;

        run_technique_span(
            ctx,
            "service-substitution",
            |ctx| self.invoke_inner(interface, operation, args, ctx),
            |result| match result {
                Ok(report) if report.substitutions == 0 => SpanStatus::Ok,
                Ok(report) => SpanStatus::Accepted {
                    support: 1,
                    dissent: report.substitutions,
                },
                Err(_) => SpanStatus::Failed { kind: "service" },
            },
        )
    }

    fn invoke_inner(
        &self,
        interface: &InterfaceId,
        operation: &str,
        args: &[Value],
        ctx: &mut ExecContext,
    ) -> Result<SubstitutionReport, ServiceError> {
        use redundancy_core::obs::Symbol;
        let mut substitutions = 0;
        let mut last_error = ServiceError::Unavailable;
        // The provider whose failure we are failing over from, if any.
        // Interned: provider ids and interface names form a small fixed
        // vocabulary, so rebind events carry symbols, not fresh strings.
        let mut failed_from: Option<Symbol> = None;
        for provider in self.registry.providers_of(interface) {
            if let Some(from) = failed_from.take() {
                let to = Symbol::intern(provider.id());
                let name = Symbol::intern(interface.name());
                ctx.obs_emit(move || redundancy_core::obs::Point::ServiceRebind {
                    interface: name,
                    from,
                    to,
                });
            }
            match provider.invoke(operation, args, ctx) {
                Ok(value) => {
                    return Ok(SubstitutionReport {
                        value,
                        served_by: provider.id().to_owned(),
                        substitutions,
                        converted: false,
                    });
                }
                Err(err) => {
                    last_error = err;
                    substitutions += 1;
                    failed_from = Some(Symbol::intern(provider.id()));
                }
            }
        }
        if self.use_converters {
            for (provider, converter) in self.registry.convertible_providers(interface) {
                if let Some(from) = failed_from.take() {
                    let to = Symbol::intern(provider.id());
                    let name = Symbol::intern(interface.name());
                    ctx.obs_emit(move || redundancy_core::obs::Point::ServiceRebind {
                        interface: name,
                        from,
                        to,
                    });
                }
                let op = converter.operation(operation);
                let adapted = converter.arguments(args);
                match provider.invoke(op, &adapted, ctx) {
                    Ok(value) => {
                        return Ok(SubstitutionReport {
                            value: converter.result(value),
                            served_by: provider.id().to_owned(),
                            substitutions,
                            converted: true,
                        });
                    }
                    Err(err) => {
                        last_error = err;
                        substitutions += 1;
                        failed_from = Some(Symbol::intern(provider.id()));
                    }
                }
            }
        }
        Err(last_error)
    }

    /// Convenience: candidate providers for an interface, in the order
    /// substitution would try them (ids only).
    #[must_use]
    pub fn candidates(&self, interface: &InterfaceId) -> Vec<String> {
        let mut ids: Vec<String> = self
            .registry
            .providers_of(interface)
            .iter()
            .map(|p| p.id().to_owned())
            .collect();
        if self.use_converters {
            ids.extend(
                self.registry
                    .convertible_providers(interface)
                    .iter()
                    .map(|(p, _)| p.id().to_owned()),
            );
        }
        ids
    }
}

/// Builds a registry with `n` interchangeable providers of `interface`,
/// each failing with probability `fail_prob` (for tests and experiment
/// E12).
#[must_use]
pub fn replicated_registry(interface: &str, n: usize, fail_prob: f64) -> ServiceRegistry {
    use redundancy_services::provider::SimProvider;
    let mut registry = ServiceRegistry::new();
    for i in 0..n {
        registry.register(Arc::new(
            SimProvider::builder(format!("{interface}.impl{i}"), InterfaceId::new(interface))
                .fail_prob(fail_prob)
                .operation("echo", |args, _| {
                    Ok(args.first().cloned().unwrap_or(Value::Null))
                })
                .build(),
        ));
    }
    registry
}

#[cfg(test)]
mod tests {
    use super::*;
    use redundancy_services::provider::SimProvider;
    use redundancy_services::registry::Converter;

    #[test]
    fn primary_serves_when_healthy() {
        let registry = replicated_registry("echo", 3, 0.0);
        let sub = DynamicSubstitution::new(&registry);
        let mut ctx = ExecContext::new(1);
        let report = sub
            .invoke(
                &InterfaceId::new("echo"),
                "echo",
                &[Value::Int(5)],
                &mut ctx,
            )
            .unwrap();
        assert_eq!(report.value, Value::Int(5));
        assert_eq!(report.served_by, "echo.impl0");
        assert_eq!(report.substitutions, 0);
        assert!(!report.converted);
    }

    #[test]
    fn substitutes_past_dead_providers() {
        let mut registry = ServiceRegistry::new();
        for (id, fail) in [("dead1", 1.0), ("dead2", 1.0), ("alive", 0.0)] {
            registry.register(Arc::new(
                SimProvider::builder(id, InterfaceId::new("svc"))
                    .fail_prob(fail)
                    .operation("op", |_, _| Ok(Value::Int(1)))
                    .build(),
            ));
        }
        let sub = DynamicSubstitution::new(&registry);
        let mut ctx = ExecContext::new(2);
        let report = sub
            .invoke(&InterfaceId::new("svc"), "op", &[], &mut ctx)
            .unwrap();
        assert_eq!(report.served_by, "alive");
        assert_eq!(report.substitutions, 2);
    }

    #[test]
    fn converter_extends_the_candidate_pool() {
        let mut registry = ServiceRegistry::new();
        registry.register(Arc::new(
            SimProvider::builder("native-dead", InterfaceId::new("weather"))
                .fail_prob(1.0)
                .operation("forecast", |_, _| Ok(Value::Null))
                .build(),
        ));
        // A similar service with a different operation name and Fahrenheit
        // output.
        registry.register(Arc::new(
            SimProvider::builder("meteo", InterfaceId::new("meteo"))
                .operation("prevision", |_, _| Ok(Value::Int(77)))
                .build(),
        ));
        registry.register_converter(
            Converter::new(InterfaceId::new("weather"), InterfaceId::new("meteo"))
                .map_operation("forecast", "prevision")
                .adapt_result(|v| match v {
                    Value::Int(f) => Value::Int((f - 32) * 5 / 9),
                    other => other,
                }),
        );
        let sub = DynamicSubstitution::new(&registry);
        let mut ctx = ExecContext::new(3);
        let report = sub
            .invoke(&InterfaceId::new("weather"), "forecast", &[], &mut ctx)
            .unwrap();
        assert_eq!(report.value, Value::Int(25));
        assert_eq!(report.served_by, "meteo");
        assert!(report.converted);

        // Without converters the same call fails.
        let strict = DynamicSubstitution::new(&registry).without_converters();
        let mut ctx = ExecContext::new(3);
        assert!(strict
            .invoke(&InterfaceId::new("weather"), "forecast", &[], &mut ctx)
            .is_err());
    }

    #[test]
    fn availability_grows_with_provider_count() {
        let availability = |n: usize| {
            let registry = replicated_registry("svc", n, 0.4);
            let sub = DynamicSubstitution::new(&registry);
            let mut ctx = ExecContext::new(4);
            let ok = (0..500)
                .filter(|_| {
                    sub.invoke(&InterfaceId::new("svc"), "echo", &[Value::Int(1)], &mut ctx)
                        .is_ok()
                })
                .count();
            ok as f64 / 500.0
        };
        let a1 = availability(1);
        let a2 = availability(2);
        let a4 = availability(4);
        assert!(a2 > a1 + 0.1, "a1={a1}, a2={a2}");
        assert!(a4 > a2, "a2={a2}, a4={a4}");
        assert!(a4 > 0.95, "a4={a4}");
    }

    #[test]
    fn exhausted_candidates_report_last_error() {
        let registry = replicated_registry("svc", 2, 1.0);
        let sub = DynamicSubstitution::new(&registry);
        let mut ctx = ExecContext::new(5);
        assert_eq!(
            sub.invoke(&InterfaceId::new("svc"), "echo", &[], &mut ctx),
            Err(ServiceError::Unavailable)
        );
    }

    #[test]
    fn candidates_lists_in_substitution_order() {
        let registry = replicated_registry("svc", 2, 0.0);
        let sub = DynamicSubstitution::new(&registry);
        assert_eq!(
            sub.candidates(&InterfaceId::new("svc")),
            vec!["svc.impl0", "svc.impl1"]
        );
    }

    #[test]
    fn entry_matches_table2() {
        assert_eq!(ENTRY.classification.intention, Intention::Opportunistic);
        assert_eq!(ENTRY.classification.redundancy, RedundancyType::Code);
        assert_eq!(
            ENTRY.classification.adjudication,
            Adjudication::ReactiveExplicit
        );
        assert_eq!(ENTRY.name, "Dynamic service substitution");
    }
}
