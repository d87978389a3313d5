//! Exception handling and rule engines / registries (paper §4.1;
//! Goodenough 1975, Baresi 2007, Modafferi/Pernici 2006).
//!
//! A registry, filled by developers at design time, maps failure classes
//! to recovery actions. At runtime, a monitor detects a failure (the
//! explicit adjudicator), looks up the first matching rule and executes
//! its recovery action — exception handling generalized beyond lexical
//! `catch` blocks.
//!
//! Classification (Table 2): deliberate / code / reactive-explicit /
//! development.

use redundancy_core::context::ExecContext;
use redundancy_core::outcome::VariantFailure;
use redundancy_core::patterns::run_technique_span;
use redundancy_core::taxonomy::{
    Adjudication, ArchitecturalPattern, Classification, FaultSet, Intention, RedundancyType,
};
use redundancy_core::technique::TechniqueEntry;
use redundancy_core::variant::{run_contained, BoxedVariant};

/// Table 2 row for exception handling and rule engines.
pub const ENTRY: TechniqueEntry = TechniqueEntry {
    name: "Exception handling, rule engines",
    classification: Classification::new(
        Intention::Deliberate,
        RedundancyType::Code,
        Adjudication::ReactiveExplicit,
        FaultSet::DEVELOPMENT,
    ),
    patterns: &[ArchitecturalPattern::SequentialAlternatives],
    citations: &[
        "Goodenough 1975",
        "Baresi 2007",
        "Modafferi 2006",
        "Fugini 2006",
    ],
};

/// Outcome classification a rule can match on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureKind {
    /// Crashes.
    Crash,
    /// Timeouts.
    Timeout,
    /// Explicit errors.
    Error,
    /// Omissions (no result).
    Omission,
    /// Any detectable failure.
    Any,
}

impl FailureKind {
    /// Whether this kind matches the given failure.
    #[must_use]
    pub fn matches(self, failure: &VariantFailure) -> bool {
        match self {
            FailureKind::Crash => matches!(failure, VariantFailure::Crash { .. }),
            FailureKind::Timeout => matches!(failure, VariantFailure::Timeout),
            FailureKind::Error => matches!(failure, VariantFailure::Error { .. }),
            FailureKind::Omission => matches!(failure, VariantFailure::Omission),
            FailureKind::Any => true,
        }
    }
}

/// A recovery rule: a guard over the observed failure plus a recovery
/// action producing a substitute result.
pub struct Rule<I, O> {
    name: String,
    kind: FailureKind,
    action: BoxedVariant<I, O>,
}

impl<I, O> Rule<I, O> {
    /// Creates a rule firing on `kind` failures and recovering with
    /// `action`.
    #[must_use]
    pub fn new(name: impl Into<String>, kind: FailureKind, action: BoxedVariant<I, O>) -> Self {
        Self {
            name: name.into(),
            kind,
            action,
        }
    }

    /// The rule's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// How an execution under the rule engine concluded.
#[derive(Debug, Clone, PartialEq)]
pub enum Handled<O> {
    /// The primary computation succeeded.
    Primary(O),
    /// A recovery rule produced the result.
    Recovered {
        /// The substitute result.
        output: O,
        /// The name of the rule that fired.
        rule: String,
    },
    /// No rule matched, or the matching rule's action also failed.
    Unhandled(VariantFailure),
}

impl<O> Handled<O> {
    /// The delivered output, if any.
    #[must_use]
    pub fn output(&self) -> Option<&O> {
        match self {
            Handled::Primary(o) | Handled::Recovered { output: o, .. } => Some(o),
            Handled::Unhandled(_) => None,
        }
    }
}

/// A rule-engine-protected computation: a primary variant plus a registry
/// of recovery rules filled at design time.
pub struct RuleEngine<I, O> {
    primary: BoxedVariant<I, O>,
    rules: Vec<Rule<I, O>>,
}

impl<I, O> RuleEngine<I, O> {
    /// Creates an engine around the primary computation.
    #[must_use]
    pub fn new(primary: BoxedVariant<I, O>) -> Self {
        Self {
            primary,
            rules: Vec::new(),
        }
    }

    /// Registers a rule. Rules are consulted in registration order; the
    /// first match fires.
    #[must_use]
    pub fn with_rule(mut self, rule: Rule<I, O>) -> Self {
        self.rules.push(rule);
        self
    }

    /// Number of registered rules.
    #[must_use]
    pub fn rules(&self) -> usize {
        self.rules.len()
    }

    /// Executes the primary; on a detectable failure, fires the first
    /// matching rule's recovery action.
    pub fn execute(&self, input: &I, ctx: &mut ExecContext) -> Handled<O> {
        use redundancy_core::obs::SpanStatus;

        run_technique_span(
            ctx,
            "rule-engine",
            |ctx| self.execute_inner(input, ctx),
            |result| match result {
                Handled::Primary(_) => SpanStatus::Ok,
                Handled::Recovered { .. } => SpanStatus::Accepted {
                    support: 1,
                    dissent: 1,
                },
                Handled::Unhandled(failure) => SpanStatus::Failed {
                    kind: failure.kind(),
                },
            },
        )
    }

    fn execute_inner(&self, input: &I, ctx: &mut ExecContext) -> Handled<O> {
        let mut child = ctx.fork(0);
        let outcome = run_contained(self.primary.as_ref(), input, &mut child);
        ctx.join(child);
        ctx.add_sequential_cost(outcome.cost);
        let failure = match outcome.result {
            Ok(output) => return Handled::Primary(output),
            Err(failure) => failure,
        };
        for (i, rule) in self.rules.iter().enumerate() {
            if rule.kind.matches(&failure) {
                let mut child = ctx.fork(1 + i as u64);
                let recovery = run_contained(rule.action.as_ref(), input, &mut child);
                ctx.join(child);
                ctx.add_sequential_cost(recovery.cost);
                let handled = match recovery.result {
                    Ok(output) => Handled::Recovered {
                        output,
                        rule: rule.name.clone(),
                    },
                    Err(failure) => Handled::Unhandled(failure),
                };
                if let Handled::Recovered { rule, .. } = &handled {
                    let fired = redundancy_core::obs::Symbol::intern(rule);
                    ctx.obs_emit(move || redundancy_core::obs::Point::Workaround {
                        rule: fired,
                        applied: true,
                    });
                }
                return handled;
            }
        }
        Handled::Unhandled(failure)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redundancy_core::variant::{pure_variant, FnVariant};

    fn failing_with(failure: VariantFailure) -> BoxedVariant<i64, i64> {
        Box::new(FnVariant::new(
            "primary",
            move |_: &i64, _: &mut ExecContext| Err(failure.clone()),
        ))
    }

    #[test]
    fn primary_success_bypasses_rules() {
        let engine = RuleEngine::new(pure_variant("ok", 5, |x: &i64| x * 2)).with_rule(Rule::new(
            "r",
            FailureKind::Any,
            pure_variant("rec", 5, |_: &i64| -1),
        ));
        let mut ctx = ExecContext::new(0);
        assert_eq!(engine.execute(&4, &mut ctx), Handled::Primary(8));
        assert_eq!(ctx.cost().invocations, 1, "rule action must not run");
    }

    #[test]
    fn matching_rule_recovers() {
        let engine = RuleEngine::new(failing_with(VariantFailure::Timeout))
            .with_rule(Rule::new(
                "on-crash",
                FailureKind::Crash,
                pure_variant("crash-rec", 5, |_: &i64| -1),
            ))
            .with_rule(Rule::new(
                "on-timeout",
                FailureKind::Timeout,
                pure_variant("timeout-rec", 5, |x: &i64| x + 100),
            ));
        let mut ctx = ExecContext::new(0);
        let handled = engine.execute(&1, &mut ctx);
        assert_eq!(
            handled,
            Handled::Recovered {
                output: 101,
                rule: "on-timeout".into()
            }
        );
        assert_eq!(handled.output(), Some(&101));
    }

    #[test]
    fn first_matching_rule_wins() {
        let engine = RuleEngine::new(failing_with(VariantFailure::crash("x")))
            .with_rule(Rule::new(
                "any-1",
                FailureKind::Any,
                pure_variant("a", 1, |_: &i64| 1),
            ))
            .with_rule(Rule::new(
                "any-2",
                FailureKind::Any,
                pure_variant("b", 1, |_: &i64| 2),
            ));
        let mut ctx = ExecContext::new(0);
        match engine.execute(&0, &mut ctx) {
            Handled::Recovered { rule, output } => {
                assert_eq!(rule, "any-1");
                assert_eq!(output, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unmatched_failure_is_unhandled() {
        let engine = RuleEngine::new(failing_with(VariantFailure::Omission)).with_rule(Rule::new(
            "on-crash",
            FailureKind::Crash,
            pure_variant("rec", 1, |_: &i64| 0),
        ));
        let mut ctx = ExecContext::new(0);
        assert_eq!(
            engine.execute(&0, &mut ctx),
            Handled::Unhandled(VariantFailure::Omission)
        );
    }

    #[test]
    fn failing_recovery_action_is_unhandled() {
        let engine = RuleEngine::new(failing_with(VariantFailure::Omission)).with_rule(Rule::new(
            "broken-handler",
            FailureKind::Any,
            failing_with(VariantFailure::crash("handler died")),
        ));
        let mut ctx = ExecContext::new(0);
        assert!(matches!(
            engine.execute(&0, &mut ctx),
            Handled::Unhandled(VariantFailure::Crash { .. })
        ));
    }

    #[test]
    fn failure_kind_matching() {
        assert!(FailureKind::Crash.matches(&VariantFailure::crash("x")));
        assert!(!FailureKind::Crash.matches(&VariantFailure::Timeout));
        assert!(FailureKind::Any.matches(&VariantFailure::Omission));
        assert!(FailureKind::Error.matches(&VariantFailure::error("e")));
        assert!(FailureKind::Omission.matches(&VariantFailure::Omission));
        assert!(FailureKind::Timeout.matches(&VariantFailure::Timeout));
    }

    #[test]
    fn silent_wrong_output_is_invisible_to_the_engine() {
        // The engine reacts only to detectable failures: a wrong output
        // passes through, exactly the technique's documented limit.
        let engine = RuleEngine::new(pure_variant("silently-wrong", 1, |_: &i64| -999)).with_rule(
            Rule::new("r", FailureKind::Any, pure_variant("rec", 1, |x: &i64| *x)),
        );
        let mut ctx = ExecContext::new(0);
        assert_eq!(engine.execute(&1, &mut ctx), Handled::Primary(-999));
    }

    #[test]
    fn entry_matches_table2() {
        assert_eq!(
            ENTRY.classification.adjudication,
            Adjudication::ReactiveExplicit
        );
        assert_eq!(ENTRY.classification.faults, FaultSet::DEVELOPMENT);
        assert_eq!(ENTRY.name, "Exception handling, rule engines");
        let engine: RuleEngine<i64, i64> = RuleEngine::new(pure_variant("p", 1, |x: &i64| *x));
        assert_eq!(engine.rules(), 0);
    }
}
