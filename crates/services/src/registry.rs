//! Service registration, discovery and interface conversion.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::provider::Provider;
use crate::value::Value;

/// Identifies a service interface (a port type, in WSDL terms).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InterfaceId(String);

impl InterfaceId {
    /// Creates an interface id.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self(name.into())
    }

    /// The interface name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for InterfaceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for InterfaceId {
    fn from(s: &str) -> Self {
        InterfaceId::new(s)
    }
}

type ArgAdapter = Box<dyn Fn(&[Value]) -> Vec<Value> + Send + Sync>;
type ResultAdapter = Box<dyn Fn(Value) -> Value + Send + Sync>;

/// Adapts calls for one interface onto a *similar* interface, as Taher et
/// al. propose for extending substitution beyond exact interface matches.
pub struct Converter {
    source: InterfaceId,
    target: InterfaceId,
    op_map: HashMap<String, String>,
    adapt_args: ArgAdapter,
    adapt_result: ResultAdapter,
}

impl Converter {
    /// Creates a converter from `source` calls to `target` calls with an
    /// operation-name map and identity argument/result adapters.
    #[must_use]
    pub fn new(source: InterfaceId, target: InterfaceId) -> Self {
        Self {
            source,
            target,
            op_map: HashMap::new(),
            adapt_args: Box::new(|args| args.to_vec()),
            adapt_result: Box::new(|v| v),
        }
    }

    /// Maps a source operation name onto a target operation name.
    #[must_use]
    pub fn map_operation(mut self, from: impl Into<String>, to: impl Into<String>) -> Self {
        self.op_map.insert(from.into(), to.into());
        self
    }

    /// Installs an argument adapter.
    #[must_use]
    pub fn adapt_args<F>(mut self, f: F) -> Self
    where
        F: Fn(&[Value]) -> Vec<Value> + Send + Sync + 'static,
    {
        self.adapt_args = Box::new(f);
        self
    }

    /// Installs a result adapter.
    #[must_use]
    pub fn adapt_result<F>(mut self, f: F) -> Self
    where
        F: Fn(Value) -> Value + Send + Sync + 'static,
    {
        self.adapt_result = Box::new(f);
        self
    }

    /// The interface whose calls this converter accepts.
    #[must_use]
    pub fn source(&self) -> &InterfaceId {
        &self.source
    }

    /// The interface this converter targets.
    #[must_use]
    pub fn target(&self) -> &InterfaceId {
        &self.target
    }

    /// Translates an operation name.
    ///
    /// Names missing from the operation map pass through unchanged —
    /// the permissive behavior substitution needs for interfaces that
    /// mostly agree — but no longer silently: each pass-through bumps
    /// the `service_converter_passthrough` telemetry counter, so a
    /// converter quietly forwarding unmapped operations shows up in the
    /// flight recorder instead of masking a missing mapping. Use
    /// [`Converter::resolve_operation`] to branch on it directly.
    #[must_use]
    pub fn operation<'a>(&'a self, op: &'a str) -> &'a str {
        self.resolve_operation(op).0
    }

    /// Translates an operation name, reporting whether a mapping was
    /// actually found (`false` = unmapped pass-through).
    #[must_use]
    pub fn resolve_operation<'a>(&'a self, op: &'a str) -> (&'a str, bool) {
        match self.op_map.get(op) {
            Some(mapped) => (mapped.as_str(), true),
            None => {
                redundancy_core::obs::telemetry::add(
                    redundancy_core::obs::telemetry::Counter::ServiceConverterPassthrough,
                    1,
                );
                (op, false)
            }
        }
    }

    /// Translates arguments.
    #[must_use]
    pub fn arguments(&self, args: &[Value]) -> Vec<Value> {
        (self.adapt_args)(args)
    }

    /// Translates a result back to the source interface's shape.
    #[must_use]
    pub fn result(&self, value: Value) -> Value {
        (self.adapt_result)(value)
    }
}

impl fmt::Debug for Converter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Converter")
            .field("source", &self.source)
            .field("target", &self.target)
            .field("op_map", &self.op_map)
            .finish_non_exhaustive()
    }
}

/// The registry: providers indexed by interface, plus converters between
/// similar interfaces.
#[derive(Default)]
pub struct ServiceRegistry {
    providers: Vec<Arc<dyn Provider>>,
    converters: Vec<Arc<Converter>>,
}

impl ServiceRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a provider. Registration order is the default preference
    /// order for binding.
    pub fn register(&mut self, provider: Arc<dyn Provider>) {
        self.providers.push(provider);
    }

    /// Registers a converter between similar interfaces.
    pub fn register_converter(&mut self, converter: Converter) {
        self.converters.push(Arc::new(converter));
    }

    /// Providers implementing exactly `interface`, in registration order.
    #[must_use]
    pub fn providers_of(&self, interface: &InterfaceId) -> Vec<Arc<dyn Provider>> {
        self.providers
            .iter()
            .filter(|p| p.interface() == interface)
            .cloned()
            .collect()
    }

    /// Providers of *similar* interfaces reachable through a converter,
    /// with the converter needed to use each.
    #[must_use]
    pub fn convertible_providers(
        &self,
        interface: &InterfaceId,
    ) -> Vec<(Arc<dyn Provider>, Arc<Converter>)> {
        let mut found = Vec::new();
        for converter in &self.converters {
            if converter.source() == interface {
                for provider in self.providers_of(converter.target()) {
                    found.push((provider, Arc::clone(converter)));
                }
            }
        }
        found
    }

    /// A provider by id.
    #[must_use]
    pub fn provider_by_id(&self, id: &str) -> Option<Arc<dyn Provider>> {
        self.providers.iter().find(|p| p.id() == id).cloned()
    }

    /// All registered interfaces (deduplicated, in first-seen order).
    #[must_use]
    pub fn interfaces(&self) -> Vec<InterfaceId> {
        let mut seen = Vec::new();
        for p in &self.providers {
            if !seen.contains(p.interface()) {
                seen.push(p.interface().clone());
            }
        }
        seen
    }

    /// Number of registered providers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.providers.len()
    }

    /// Whether the registry is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.providers.is_empty()
    }
}

impl fmt::Debug for ServiceRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServiceRegistry")
            .field("providers", &self.providers.len())
            .field("converters", &self.converters.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::SimProvider;

    fn registry() -> ServiceRegistry {
        let mut reg = ServiceRegistry::new();
        for (id, iface) in [("w1", "weather"), ("w2", "weather"), ("m1", "meteo")] {
            reg.register(Arc::new(
                SimProvider::builder(id, InterfaceId::new(iface))
                    .operation("noop", |_, _| Ok(Value::Null))
                    .build(),
            ));
        }
        reg
    }

    #[test]
    fn discovery_by_interface_preserves_order() {
        let reg = registry();
        let weather = reg.providers_of(&InterfaceId::new("weather"));
        assert_eq!(weather.len(), 2);
        assert_eq!(weather[0].id(), "w1");
        assert_eq!(weather[1].id(), "w2");
        assert!(reg.providers_of(&InterfaceId::new("nothing")).is_empty());
    }

    #[test]
    fn convertible_providers_found_through_converter() {
        let mut reg = registry();
        reg.register_converter(
            Converter::new(InterfaceId::new("weather"), InterfaceId::new("meteo"))
                .map_operation("forecast", "prevision"),
        );
        let similar = reg.convertible_providers(&InterfaceId::new("weather"));
        assert_eq!(similar.len(), 1);
        assert_eq!(similar[0].0.id(), "m1");
        assert_eq!(similar[0].1.operation("forecast"), "prevision");
        assert_eq!(similar[0].1.operation("other"), "other");
    }

    #[test]
    fn unmapped_operations_pass_through_observably() {
        let conv = Converter::new(InterfaceId::new("weather"), InterfaceId::new("meteo"))
            .map_operation("forecast", "prevision");
        assert_eq!(conv.resolve_operation("forecast"), ("prevision", true));
        assert_eq!(conv.resolve_operation("humidity"), ("humidity", false));
        // The global-telemetry counter only moves when the recorder is
        // on; what must hold always is the mapped/unmapped signal.
        use redundancy_core::obs::telemetry::{Counter, Telemetry};
        let global = Telemetry::global();
        let was_enabled = global.is_enabled();
        global.set_enabled(true);
        let before = global
            .snapshot()
            .counter(Counter::ServiceConverterPassthrough);
        assert_eq!(conv.operation("humidity"), "humidity");
        assert_eq!(conv.operation("forecast"), "prevision");
        let after = global
            .snapshot()
            .counter(Counter::ServiceConverterPassthrough);
        global.set_enabled(was_enabled);
        // ≥ rather than ==: the registry is process-global and sibling
        // tests may translate operations while the recorder is on.
        assert!(after - before >= 1, "unmapped lookup was recorded");
    }

    #[test]
    fn converter_adapts_args_and_results() {
        let conv = Converter::new(InterfaceId::new("a"), InterfaceId::new("b"))
            .adapt_args(|args| {
                // The similar service wants arguments reversed.
                let mut v = args.to_vec();
                v.reverse();
                v
            })
            .adapt_result(|v| match v {
                Value::Int(x) => Value::Int(x * 10),
                other => other,
            });
        assert_eq!(
            conv.arguments(&[Value::Int(1), Value::Int(2)]),
            vec![Value::Int(2), Value::Int(1)]
        );
        assert_eq!(conv.result(Value::Int(3)), Value::Int(30));
    }

    #[test]
    fn provider_by_id_and_interfaces() {
        let reg = registry();
        assert_eq!(reg.provider_by_id("m1").unwrap().id(), "m1");
        assert!(reg.provider_by_id("zz").is_none());
        assert_eq!(
            reg.interfaces(),
            vec![InterfaceId::new("weather"), InterfaceId::new("meteo")]
        );
        assert_eq!(reg.len(), 3);
        assert!(!reg.is_empty());
    }
}
