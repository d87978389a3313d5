//! Wrappers (paper §4.1; Popov 2001, Chang 2009, Salles 1999, Fetzer
//! 2001).
//!
//! Wrappers mediate component interactions to *prevent* failures before
//! they happen: sanitizing arguments for incompletely specified COTS
//! components (Popov, Chang), and bounding heap writes to stop smashing
//! attacks (Fetzer's "healers"). Both flavors are implemented here:
//!
//! - [`SanitizingWrapper`] — validates/sanitizes inputs before the call;
//! - [`HeapWrapper`] — intercepts every heap write against
//!   [`SimMemory`] and refuses
//!   boundary violations, turning silent corruption into a detectable
//!   (and harmless) error.
//!
//! Classification (Table 2): deliberate / code / preventive / Bohrbugs +
//! malicious.
//!
//! Wrappers are *intra-component*: they have no redundant executions of
//! their own to decide over, so there is no decision policy to set here.
//! They compose with the eager pattern engines for free instead — a
//! wrapped variant charges the same execution context as an unwrapped
//! one, so when a pattern running under
//! [`DecisionPolicy::Eager`](redundancy_core::patterns::DecisionPolicy)
//! fixes its verdict, in-flight wrapped variants observe the cancellation
//! token at their next charge exactly like bare variants do (see the
//! `wrapped_variants_cooperate_with_eager_cancellation` test).

use redundancy_core::context::ExecContext;
use redundancy_core::obs::Symbol;
use redundancy_core::outcome::VariantFailure;
use redundancy_core::taxonomy::{
    Adjudication, ArchitecturalPattern, Classification, FaultClass, FaultSet, Intention,
    RedundancyType,
};
use redundancy_core::technique::TechniqueEntry;
use redundancy_core::variant::{BoxedVariant, Variant};
use redundancy_sandbox::memory::{MemoryFault, SegmentId, SimMemory};

/// Table 2 row for wrappers.
pub const ENTRY: TechniqueEntry = TechniqueEntry {
    name: "Wrappers",
    classification: Classification::new(
        Intention::Deliberate,
        RedundancyType::Code,
        Adjudication::Preventive,
        FaultSet::BOHRBUGS.with(FaultClass::Malicious),
    ),
    patterns: &[ArchitecturalPattern::IntraComponent],
    citations: &["Popov 2001", "Chang 2009", "Salles 1999", "Fetzer 2001"],
};

/// What a sanitizing wrapper decided about an input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputDisposition {
    /// The input was already acceptable.
    Clean,
    /// The input was repaired before the call.
    Sanitized,
    /// The input was rejected outright.
    Rejected,
}

type Sanitizer<I> = Box<dyn Fn(&I) -> Option<I> + Send + Sync>;

/// A wrapper that checks (and optionally repairs) inputs before they
/// reach a wrapped component — the COTS-protection wrappers of Popov and
/// the healing interfaces of Chang.
pub struct SanitizingWrapper<I, O> {
    inner: BoxedVariant<I, O>,
    is_valid: Box<dyn Fn(&I) -> bool + Send + Sync>,
    sanitize: Option<Sanitizer<I>>,
}

impl<I, O> SanitizingWrapper<I, O> {
    /// Wraps `inner`, rejecting inputs failing `is_valid`.
    #[must_use]
    pub fn new(
        inner: BoxedVariant<I, O>,
        is_valid: impl Fn(&I) -> bool + Send + Sync + 'static,
    ) -> Self {
        Self {
            inner,
            is_valid: Box::new(is_valid),
            sanitize: None,
        }
    }

    /// Installs a sanitizer: invalid inputs are repaired when the
    /// sanitizer returns `Some`, rejected otherwise.
    #[must_use]
    pub fn with_sanitizer(
        mut self,
        sanitize: impl Fn(&I) -> Option<I> + Send + Sync + 'static,
    ) -> Self {
        self.sanitize = Some(Box::new(sanitize));
        self
    }

    /// Classifies an input without executing.
    #[must_use]
    pub fn disposition(&self, input: &I) -> InputDisposition {
        if (self.is_valid)(input) {
            InputDisposition::Clean
        } else if let Some(sanitize) = &self.sanitize {
            if sanitize(input).is_some() {
                InputDisposition::Sanitized
            } else {
                InputDisposition::Rejected
            }
        } else {
            InputDisposition::Rejected
        }
    }
}

impl<I, O> Variant<I, O> for SanitizingWrapper<I, O>
where
    I: Send + Sync,
    O: Send + Sync,
{
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn symbol(&self) -> Symbol {
        self.inner.symbol()
    }

    fn execute(&self, input: &I, ctx: &mut ExecContext) -> Result<O, VariantFailure> {
        use redundancy_core::obs::Point;
        if (self.is_valid)(input) {
            return self.inner.execute(input, ctx);
        }
        if let Some(sanitize) = &self.sanitize {
            if let Some(repaired) = sanitize(input) {
                ctx.obs_emit(|| Point::Sanitized {
                    action: "rewritten",
                });
                return self.inner.execute(&repaired, ctx);
            }
        }
        ctx.obs_emit(|| Point::Sanitized { action: "rejected" });
        Err(VariantFailure::error(
            "wrapper rejected an invalid interaction",
        ))
    }

    fn design_cost(&self) -> f64 {
        self.inner.design_cost()
    }
}

/// A boundary-checking heap interface — Fetzer's healer: all writes go
/// through [`HeapWrapper::write`], which refuses boundary violations that
/// the unchecked path would turn into silent corruption.
#[derive(Debug)]
pub struct HeapWrapper {
    memory: SimMemory,
    prevented: u64,
}

impl HeapWrapper {
    /// Wraps a simulated memory.
    #[must_use]
    pub fn new(memory: SimMemory) -> Self {
        Self {
            memory,
            prevented: 0,
        }
    }

    /// Allocates a buffer.
    ///
    /// # Errors
    ///
    /// Propagates [`MemoryFault::OutOfMemory`].
    pub fn alloc(&mut self, len: u64) -> Result<SegmentId, MemoryFault> {
        self.memory.alloc(len)
    }

    /// Frees a buffer.
    ///
    /// # Errors
    ///
    /// Propagates [`MemoryFault::UnknownSegment`] on double frees.
    pub fn free(&mut self, segment: SegmentId) -> Result<(), MemoryFault> {
        self.memory.free(segment)
    }

    /// Checked write: refuses boundary violations (and counts them as
    /// prevented smashes).
    ///
    /// # Errors
    ///
    /// Returns the [`MemoryFault`] the unchecked write would have turned
    /// into silent corruption.
    pub fn write(&mut self, segment: SegmentId, offset: u64, len: u64) -> Result<(), MemoryFault> {
        match self.memory.write(segment, offset, len) {
            Ok(()) => Ok(()),
            Err(fault) => {
                if matches!(fault, MemoryFault::BoundsViolation { .. }) {
                    self.prevented += 1;
                }
                Err(fault)
            }
        }
    }

    /// Number of smashes this wrapper prevented.
    #[must_use]
    pub fn prevented_smashes(&self) -> u64 {
        self.prevented
    }

    /// The wrapped memory (for audits).
    #[must_use]
    pub fn memory(&self) -> &SimMemory {
        &self.memory
    }

    /// Unwraps the memory.
    #[must_use]
    pub fn into_inner(self) -> SimMemory {
        self.memory
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redundancy_core::variant::pure_variant;

    #[test]
    fn wrapper_symbol_is_the_inner_interned_name() {
        let wrapper =
            SanitizingWrapper::new(pure_variant("sym-inner", 5, |x: &i64| *x), |x: &i64| {
                *x >= 0
            });
        assert_eq!(wrapper.name(), "sym-inner");
        assert_eq!(wrapper.symbol(), Symbol::intern(wrapper.name()));
    }

    #[test]
    fn wrapped_variants_cooperate_with_eager_cancellation() {
        use redundancy_core::adjudicator::voting::MajorityVoter;
        use redundancy_core::patterns::{DecisionPolicy, ExecutionMode, ParallelEvaluation};
        use redundancy_core::variant::FnVariant;

        // A wrapper around a long-running component: the wrapper passes
        // the input through, and the inner loop charges the (cancellable)
        // context on every step.
        let slow: BoxedVariant<i32, i32> =
            Box::new(FnVariant::new("slow", |x: &i32, ctx: &mut ExecContext| {
                for _ in 0..2_000 {
                    ctx.charge(1).map_err(|_| VariantFailure::Timeout)?;
                    std::thread::sleep(std::time::Duration::from_micros(500));
                }
                Ok(*x)
            }));
        let wrapped: BoxedVariant<i32, i32> =
            Box::new(SanitizingWrapper::new(slow, |x: &i32| *x >= 0));
        let p = ParallelEvaluation::new(MajorityVoter::new())
            .with_mode(ExecutionMode::Threaded)
            .with_policy(DecisionPolicy::Eager)
            .with_variant(pure_variant("a", 10, |x: &i32| x * 2))
            .with_variant(pure_variant("b", 20, |x: &i32| x * 2))
            .with_variant(wrapped);
        let mut ctx = ExecContext::new(3);
        let report = p.run(&10, &mut ctx);

        // The two agreeing fast variants fix the majority; the wrapped
        // straggler notices the token through its inner charges.
        assert_eq!(report.output(), Some(&20));
        assert_eq!(report.outcomes[2].result, Err(VariantFailure::Cancelled));
        assert_eq!(report.cancelled(), 1);
    }

    #[test]
    fn heap_wrapper_prevents_all_smashes() {
        // Unprotected run: overflowing writes corrupt neighbors.
        let mut raw = SimMemory::new(0x1000, 0x10000);
        let a = raw.alloc(16).unwrap();
        let _b = raw.alloc(16).unwrap();
        let _ = raw.write_unchecked(a, 8, 16).unwrap();
        assert!(!raw.audit().is_empty(), "baseline must corrupt");

        // Wrapped run: the same writes are refused, memory stays clean.
        let mut wrapped = HeapWrapper::new(SimMemory::new(0x1000, 0x10000));
        let a = wrapped.alloc(16).unwrap();
        let _b = wrapped.alloc(16).unwrap();
        assert!(wrapped.write(a, 8, 16).is_err());
        assert!(wrapped.write(a, 0, 16).is_ok());
        assert!(wrapped.memory().audit().is_empty());
        assert_eq!(wrapped.prevented_smashes(), 1);
    }

    #[test]
    fn heap_wrapper_passes_legal_traffic() {
        let mut wrapped = HeapWrapper::new(SimMemory::new(0, 0x1000));
        let a = wrapped.alloc(100).unwrap();
        for off in (0..100).step_by(10) {
            assert!(wrapped.write(a, off, 10).is_ok());
        }
        assert_eq!(wrapped.prevented_smashes(), 0);
        wrapped.free(a).unwrap();
        let mem = wrapped.into_inner();
        assert_eq!(mem.live_segments(), 0);
    }

    #[test]
    fn sanitizing_wrapper_passes_valid_inputs() {
        let wrapper =
            SanitizingWrapper::new(pure_variant("sqrt-ish", 5, |x: &i64| x / 2), |x: &i64| {
                *x >= 0
            });
        let mut ctx = ExecContext::new(0);
        assert_eq!(wrapper.execute(&10, &mut ctx), Ok(5));
        assert_eq!(wrapper.disposition(&10), InputDisposition::Clean);
    }

    #[test]
    fn sanitizing_wrapper_rejects_without_sanitizer() {
        let wrapper =
            SanitizingWrapper::new(pure_variant("inner", 5, |x: &i64| x / 2), |x: &i64| *x >= 0);
        let mut ctx = ExecContext::new(0);
        assert!(matches!(
            wrapper.execute(&-10, &mut ctx),
            Err(VariantFailure::Error { .. })
        ));
        assert_eq!(wrapper.disposition(&-10), InputDisposition::Rejected);
    }

    #[test]
    fn sanitizing_wrapper_repairs_when_possible() {
        let wrapper =
            SanitizingWrapper::new(pure_variant("inner", 5, |x: &i64| x * 2), |x: &i64| *x >= 0)
                .with_sanitizer(|x: &i64| Some(x.abs()));
        let mut ctx = ExecContext::new(0);
        assert_eq!(wrapper.execute(&-21, &mut ctx), Ok(42));
        assert_eq!(wrapper.disposition(&-21), InputDisposition::Sanitized);
    }

    #[test]
    fn sanitizer_may_still_reject() {
        let wrapper =
            SanitizingWrapper::new(pure_variant("inner", 5, |x: &i64| *x), |x: &i64| *x >= 0)
                .with_sanitizer(|x: &i64| if *x > -100 { Some(-x) } else { None });
        let mut ctx = ExecContext::new(0);
        assert_eq!(wrapper.execute(&-5, &mut ctx), Ok(5));
        assert!(wrapper.execute(&-500, &mut ctx).is_err());
        assert_eq!(wrapper.disposition(&-500), InputDisposition::Rejected);
    }

    #[test]
    fn wrapper_prevents_malicious_interaction_bohrbug() {
        // A component with a Bohrbug on negative inputs (div rounds the
        // wrong way, say). The wrapper prevents the activation entirely.
        use redundancy_faults::{FaultSpec, FaultyVariant};
        let fragile = FaultyVariant::builder("fragile", 5, |x: &i64| x * 3)
            .corruptor(|c, _| c - 1)
            .attack_detector(|x: &i64| *x < 0)
            .fault(FaultSpec::malicious("neg-input-bug", 1.0, 3))
            .build_boxed();
        let wrapper = SanitizingWrapper::new(fragile, |x: &i64| *x >= 0)
            .with_sanitizer(|x: &i64| Some(x.abs()));
        let mut ctx = ExecContext::new(0);
        // Without the wrapper, -7 triggers the corruption; with it, the
        // input is repaired before reaching the component.
        assert_eq!(wrapper.execute(&-7, &mut ctx), Ok(21));
    }

    #[test]
    fn entry_matches_table2() {
        assert_eq!(ENTRY.classification.adjudication, Adjudication::Preventive);
        assert!(ENTRY.classification.faults.contains(FaultClass::Bohrbug));
        assert!(ENTRY.classification.faults.contains(FaultClass::Malicious));
        assert!(!ENTRY.classification.faults.contains(FaultClass::Heisenbug));
        assert_eq!(ENTRY.name, "Wrappers");
    }
}
