//! [`FaultyVariant`]: a correct computation with injectable faults.

use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use redundancy_core::context::ExecContext;
use redundancy_core::obs::Symbol;
use redundancy_core::outcome::VariantFailure;
use redundancy_core::rng::SplitMix64;
use redundancy_core::variant::Variant;

use crate::spec::{FaultEffect, FaultSpec, Probe};

/// A shared, resettable execution-age counter.
///
/// Rejuvenation and reboot techniques hold an `AgeHandle` to the variants
/// (or processes) they manage: resetting it models re-initializing the
/// execution environment, which is exactly how rejuvenation defeats aging
/// faults.
#[derive(Debug, Clone, Default)]
pub struct AgeHandle(Arc<AtomicU64>);

impl AgeHandle {
    /// Creates a counter at age zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Current age (executions since the last reset).
    #[must_use]
    #[inline]
    pub fn age(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Increments and returns the *previous* age.
    #[inline]
    pub fn tick(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed)
    }

    /// Resets the age to zero (rejuvenation / reboot).
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A shared environment signature.
///
/// Environment-sensitive faults hash this signature into their activation
/// decision; environment-perturbation techniques (RX) change it to model
/// re-execution under modified environmental conditions.
#[derive(Debug, Clone, Default)]
pub struct EnvSignature(Arc<AtomicU64>);

impl EnvSignature {
    /// Creates a signature for the default environment (0).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Current signature value.
    #[must_use]
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Replaces the signature (a new environment configuration).
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }
}

/// A snapshot of the concrete environment knobs a fault may react to
/// (mirrors the RX perturbation menu; see
/// `redundancy-sandbox`'s `EnvConfig`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KnobSnapshot {
    /// Heap allocation padding in bytes.
    pub padding: u64,
    /// Whether fresh allocations are zero-filled.
    pub zero_fill: bool,
    /// Message delivery order seed.
    pub order_seed: u64,
    /// Scheduling priority.
    pub priority: u8,
    /// Admitted request fraction, in permille.
    pub throttle_permille: u16,
}

impl Default for KnobSnapshot {
    fn default() -> Self {
        Self {
            padding: 0,
            zero_fill: false,
            order_seed: 0,
            priority: 10,
            throttle_permille: 1000,
        }
    }
}

/// A shared, mutable set of environment knobs. Environment-perturbation
/// techniques write the perturbed configuration here; knob-aware faults
/// ([`Activation::BufferOverflow`](crate::spec::Activation) and friends)
/// read it through the probe.
#[derive(Debug, Clone, Default)]
pub struct EnvKnobs(Arc<KnobCells>);

#[derive(Debug, Default)]
struct KnobCells {
    padding: AtomicU64,
    zero_fill: std::sync::atomic::AtomicBool,
    order_seed: AtomicU64,
    priority: AtomicU64,
    throttle_permille: AtomicU64,
}

impl EnvKnobs {
    /// Creates knobs at the baseline configuration.
    #[must_use]
    pub fn new() -> Self {
        let knobs = Self::default();
        knobs.set(KnobSnapshot::default());
        knobs
    }

    /// Reads the current knob values.
    #[must_use]
    #[inline]
    pub fn snapshot(&self) -> KnobSnapshot {
        KnobSnapshot {
            padding: self.0.padding.load(Ordering::Relaxed),
            zero_fill: self.0.zero_fill.load(Ordering::Relaxed),
            order_seed: self.0.order_seed.load(Ordering::Relaxed),
            priority: self.0.priority.load(Ordering::Relaxed) as u8,
            throttle_permille: self.0.throttle_permille.load(Ordering::Relaxed) as u16,
        }
    }

    /// Replaces the knob values.
    pub fn set(&self, snapshot: KnobSnapshot) {
        self.0.padding.store(snapshot.padding, Ordering::Relaxed);
        self.0
            .zero_fill
            .store(snapshot.zero_fill, Ordering::Relaxed);
        self.0
            .order_seed
            .store(snapshot.order_seed, Ordering::Relaxed);
        self.0
            .priority
            .store(u64::from(snapshot.priority), Ordering::Relaxed);
        self.0
            .throttle_permille
            .store(u64::from(snapshot.throttle_permille), Ordering::Relaxed);
    }
}

/// Computes a stable 64-bit key for a hashable input.
#[must_use]
pub fn input_key<I: Hash>(input: &I) -> u64 {
    // FxHash-style: deterministic across runs (unlike RandomState).
    struct Fx(u64);
    impl Hasher for Fx {
        fn finish(&self) -> u64 {
            self.0
        }
        fn write(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    let mut h = Fx(0xcbf2_9ce4_8422_2325);
    input.hash(&mut h);
    h.finish()
}

type Compute<I, O> = Box<dyn Fn(&I, &mut ExecContext) -> Result<O, VariantFailure> + Send + Sync>;
type Corruptor<O> = Box<dyn Fn(&O, &mut SplitMix64) -> O + Send + Sync>;
type ProbeFn<I> = Box<dyn Fn(&I) -> (u64, bool) + Send + Sync>;

/// A variant wrapping a correct computation with a list of injectable
/// faults. The first activating fault determines the outcome.
///
/// Build with [`FaultyVariant::builder`]. See the crate docs for the fault
/// semantics.
pub struct FaultyVariant<I, O> {
    /// Interned once at build time: executions copy it.
    name: Symbol,
    design_cost: f64,
    work: u64,
    compute: Compute<I, O>,
    corrupt: Corruptor<O>,
    probe: ProbeFn<I>,
    faults: Vec<FaultSpec>,
    age: AgeHandle,
    env: EnvSignature,
    knobs: EnvKnobs,
}

impl<I, O> FaultyVariant<I, O> {
    /// Starts building a faulty variant around a correct computation
    /// charging `work` units per call.
    pub fn builder<F>(name: impl Into<String>, work: u64, compute: F) -> FaultyVariantBuilder<I, O>
    where
        F: Fn(&I) -> O + Send + Sync + 'static,
        I: Hash,
        O: 'static,
    {
        FaultyVariantBuilder::new(name, work, compute)
    }

    /// The shared age counter of this variant.
    #[must_use]
    pub fn age_handle(&self) -> AgeHandle {
        self.age.clone()
    }

    /// The shared environment signature of this variant.
    #[must_use]
    pub fn env_signature(&self) -> EnvSignature {
        self.env.clone()
    }

    /// The shared environment knobs of this variant.
    #[must_use]
    pub fn env_knobs(&self) -> EnvKnobs {
        self.knobs.clone()
    }

    /// The injected fault specs.
    #[must_use]
    pub fn faults(&self) -> &[FaultSpec] {
        &self.faults
    }
}

impl<I, O> Variant<I, O> for FaultyVariant<I, O>
where
    I: Send + Sync,
    O: Send + Sync,
{
    fn name(&self) -> &str {
        self.name.resolve()
    }

    fn symbol(&self) -> Symbol {
        self.name
    }

    fn execute(&self, input: &I, ctx: &mut ExecContext) -> Result<O, VariantFailure> {
        ctx.charge(self.work).map_err(|_| VariantFailure::Timeout)?;
        let age = self.age.tick();
        let (input_key, malicious) = (self.probe)(input);
        let probe = Probe {
            input_key,
            malicious,
            age,
            env_signature: self.env.get(),
            knobs: self.knobs.snapshot(),
        };
        // Stochastic activations draw from a stream keyed by this variant
        // (salt) so activation does not depend on adjudication order.
        let mut fault_rng = ctx.rng().split();
        for fault in &self.faults {
            if fault.activation.fires(&probe, &mut fault_rng) {
                return match fault.effect {
                    FaultEffect::Crash => Err(VariantFailure::crash(format!(
                        "injected fault `{}`",
                        fault.id
                    ))),
                    FaultEffect::Hang => Err(VariantFailure::Timeout),
                    FaultEffect::ErrorReturn => Err(VariantFailure::error(format!(
                        "injected fault `{}`",
                        fault.id
                    ))),
                    FaultEffect::Omission => Err(VariantFailure::Omission),
                    FaultEffect::SilentWrongOutput => {
                        let correct = (self.compute)(input, ctx)?;
                        Ok((self.corrupt)(&correct, &mut fault_rng))
                    }
                };
            }
        }
        (self.compute)(input, ctx)
    }

    fn design_cost(&self) -> f64 {
        self.design_cost
    }
}

/// Builder for [`FaultyVariant`].
pub struct FaultyVariantBuilder<I, O> {
    inner: FaultyVariant<I, O>,
}

impl<I, O> FaultyVariantBuilder<I, O> {
    fn new<F>(name: impl Into<String>, work: u64, compute: F) -> Self
    where
        F: Fn(&I) -> O + Send + Sync + 'static,
        I: Hash,
        O: 'static,
    {
        FaultyVariantBuilder {
            inner: FaultyVariant {
                name: Symbol::intern(&name.into()),
                design_cost: 1.0,
                work,
                compute: Box::new(move |input, _ctx| Ok(compute(input))),
                corrupt: Box::new(|_orig, rng| {
                    // Default corruptor must be overridden for wrong-output
                    // faults on types without a sensible default; for any O
                    // we cannot synthesize a value, so panic loudly.
                    let _ = rng;
                    panic!("SilentWrongOutput fault injected without a corruptor");
                }),
                probe: Box::new(|input| (input_key_erased(input), false)),
                faults: Vec::new(),
                age: AgeHandle::new(),
                env: EnvSignature::new(),
                knobs: EnvKnobs::new(),
            },
        }
    }

    /// Sets the corruptor used by `SilentWrongOutput` faults to derive a
    /// wrong output from the correct one.
    #[must_use]
    pub fn corruptor<C>(mut self, corrupt: C) -> Self
    where
        C: Fn(&O, &mut SplitMix64) -> O + Send + Sync + 'static,
    {
        self.inner.corrupt = Box::new(corrupt);
        self
    }

    /// Marks inputs as malicious according to `is_attack` (for
    /// [`Activation::OnMalicious`](crate::spec::Activation::OnMalicious)).
    #[must_use]
    pub fn attack_detector<P>(mut self, is_attack: P) -> Self
    where
        P: Fn(&I) -> bool + Send + Sync + 'static,
        I: Hash,
    {
        self.inner.probe = Box::new(move |input| (input_key_erased(input), is_attack(input)));
        self
    }

    /// Adds a fault.
    #[must_use]
    pub fn fault(mut self, fault: FaultSpec) -> Self {
        self.inner.faults.push(fault);
        self
    }

    /// Sets the design cost.
    #[must_use]
    pub fn design_cost(mut self, cost: f64) -> Self {
        self.inner.design_cost = cost;
        self
    }

    /// Shares an existing age counter (several variants in one simulated
    /// process age together).
    #[must_use]
    pub fn age_handle(mut self, age: AgeHandle) -> Self {
        self.inner.age = age;
        self
    }

    /// Shares an existing environment signature.
    #[must_use]
    pub fn env_signature(mut self, env: EnvSignature) -> Self {
        self.inner.env = env;
        self
    }

    /// Shares an existing environment knob set.
    #[must_use]
    pub fn env_knobs(mut self, knobs: EnvKnobs) -> Self {
        self.inner.knobs = knobs;
        self
    }

    /// Finishes the build.
    #[must_use]
    pub fn build(self) -> FaultyVariant<I, O> {
        self.inner
    }

    /// Finishes the build, boxed as a trait object.
    #[must_use]
    pub fn build_boxed(self) -> Box<dyn Variant<I, O>>
    where
        I: Send + Sync + 'static,
        O: Send + Sync + 'static,
    {
        Box::new(self.inner)
    }
}

fn input_key_erased<I: Hash>(input: &I) -> u64 {
    input_key(input)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Activation;
    use redundancy_core::outcome::VariantFailure;

    fn ctx() -> ExecContext {
        ExecContext::new(77)
    }

    #[test]
    fn no_faults_computes_correctly() {
        let v = FaultyVariant::builder("clean", 5, |x: &i64| x * 2).build();
        let mut c = ctx();
        assert_eq!(v.execute(&21, &mut c), Ok(42));
        assert_eq!(c.cost().work_units, 5);
    }

    #[test]
    fn bohrbug_fails_same_inputs_every_time() {
        let v = FaultyVariant::builder("buggy", 1, |x: &i64| x * 2)
            .corruptor(|correct, _| correct + 1)
            .fault(FaultSpec::bohrbug("b1", 0.3, 42))
            .build();
        let mut c = ctx();
        let mut failing = Vec::new();
        for x in 0..200i64 {
            let wrong = v.execute(&x, &mut c) != Ok(x * 2);
            failing.push(wrong);
        }
        // Re-execution gives identical results: deterministic fault.
        for x in 0..200i64 {
            let wrong = v.execute(&x, &mut c) != Ok(x * 2);
            assert_eq!(wrong, failing[x as usize], "input {x} flapped");
        }
        let rate = failing.iter().filter(|&&w| w).count();
        assert!(rate > 30 && rate < 90, "rate {rate} out of calibration");
    }

    #[test]
    fn heisenbug_is_transient_per_execution() {
        let v = FaultyVariant::builder("flaky", 1, |x: &i64| *x)
            .fault(FaultSpec::heisenbug("h1", 0.5))
            .build();
        let mut c = ctx();
        let crashes = (0..1000).filter(|_| v.execute(&7, &mut c).is_err()).count();
        assert!(crashes > 400 && crashes < 600, "crashes {crashes}");
    }

    #[test]
    fn aging_fault_resets_with_age_handle() {
        let v = FaultyVariant::builder("aging", 1, |x: &i64| *x)
            .fault(FaultSpec::aging("a1", 0.0, 0.01))
            .build();
        let age = v.age_handle();
        let mut c = ctx();
        // Warm up to age 400: failures should be common.
        let mut old_failures = 0;
        for _ in 0..400 {
            if v.execute(&1, &mut c).is_err() {
                old_failures += 1;
            }
        }
        assert!(old_failures > 50, "old failures {old_failures}");
        // Rejuvenate: the next executions should mostly succeed.
        age.reset();
        // Expected failures over 50 runs at growth 0.01: ~12 (hazard ramps
        // from 0 to 0.49); far below the post-aging rate.
        let young_failures = (0..50).filter(|_| v.execute(&1, &mut c).is_err()).count();
        assert!(young_failures < 25, "young failures {young_failures}");
    }

    #[test]
    fn malicious_fault_needs_attack_flag() {
        let v = FaultyVariant::builder("vuln", 1, |x: &i64| *x)
            .attack_detector(|x: &i64| *x < 0)
            .corruptor(|_, _| 666)
            .fault(FaultSpec::malicious("m1", 1.0, 5))
            .build();
        let mut c = ctx();
        assert_eq!(v.execute(&10, &mut c), Ok(10));
        assert_eq!(v.execute(&-10, &mut c), Ok(666));
    }

    #[test]
    fn env_sensitive_fault_escapes_under_new_environment() {
        let v = FaultyVariant::builder("envy", 1, |x: &i64| *x)
            .fault(FaultSpec::new(
                "e1",
                Activation::EnvSensitive {
                    density: 0.5,
                    salt: 3,
                },
                FaultEffect::Crash,
            ))
            .build();
        let env = v.env_signature();
        let mut c = ctx();
        // Find an input failing in env 0.
        let failing: Vec<i64> = (0..200).filter(|x| v.execute(x, &mut c).is_err()).collect();
        assert!(!failing.is_empty());
        // Perturb the environment: about half of them should now pass.
        env.set(0xdead_beef);
        let escaped = failing
            .iter()
            .filter(|x| v.execute(x, &mut c).is_ok())
            .count();
        let rate = escaped as f64 / failing.len() as f64;
        assert!(rate > 0.3 && rate < 0.7, "escape rate {rate}");
    }

    #[test]
    fn effects_map_to_failures() {
        let mk = |effect| {
            FaultyVariant::builder("fx", 1, |x: &i64| *x)
                .corruptor(|o, _| o + 1)
                .fault(FaultSpec::new("f", Activation::Always, effect))
                .build()
        };
        let mut c = ctx();
        assert!(matches!(
            mk(FaultEffect::Crash).execute(&1, &mut c),
            Err(VariantFailure::Crash { .. })
        ));
        assert_eq!(
            mk(FaultEffect::Hang).execute(&1, &mut c),
            Err(VariantFailure::Timeout)
        );
        assert!(matches!(
            mk(FaultEffect::ErrorReturn).execute(&1, &mut c),
            Err(VariantFailure::Error { .. })
        ));
        assert_eq!(
            mk(FaultEffect::Omission).execute(&1, &mut c),
            Err(VariantFailure::Omission)
        );
        assert_eq!(
            mk(FaultEffect::SilentWrongOutput).execute(&1, &mut c),
            Ok(2)
        );
    }

    #[test]
    fn first_activating_fault_wins() {
        let v = FaultyVariant::builder("multi", 1, |x: &i64| *x)
            .fault(FaultSpec::new(
                "f1",
                Activation::Always,
                FaultEffect::Omission,
            ))
            .fault(FaultSpec::new("f2", Activation::Always, FaultEffect::Crash))
            .build();
        let mut c = ctx();
        assert_eq!(v.execute(&1, &mut c), Err(VariantFailure::Omission));
    }

    #[test]
    fn shared_age_handle_ages_together() {
        let age = AgeHandle::new();
        let v1 = FaultyVariant::builder("p1", 1, |x: &i64| *x)
            .age_handle(age.clone())
            .build();
        let v2 = FaultyVariant::builder("p2", 1, |x: &i64| *x)
            .age_handle(age.clone())
            .build();
        let mut c = ctx();
        let _ = v1.execute(&1, &mut c);
        let _ = v2.execute(&1, &mut c);
        assert_eq!(age.age(), 2);
    }

    #[test]
    fn symbol_is_the_interned_name() {
        let v = FaultyVariant::builder(String::from("sym-faulty"), 1, |x: &i64| *x).build();
        assert_eq!(v.symbol(), Symbol::intern(v.name()));
        assert_eq!(v.name(), "sym-faulty");
    }

    #[test]
    fn input_keys_stable_and_distinct() {
        assert_eq!(input_key(&"hello"), input_key(&"hello"));
        assert_ne!(input_key(&"hello"), input_key(&"world"));
        assert_ne!(input_key(&1u64), input_key(&2u64));
    }

    #[test]
    #[should_panic(expected = "without a corruptor")]
    fn wrong_output_without_corruptor_panics() {
        let v = FaultyVariant::builder("oops", 1, |x: &i64| *x)
            .fault(FaultSpec::new(
                "f",
                Activation::Always,
                FaultEffect::SilentWrongOutput,
            ))
            .build();
        let mut c = ctx();
        let _ = v.execute(&1, &mut c);
    }
}
