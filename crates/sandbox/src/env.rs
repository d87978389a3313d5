//! Execution-environment configuration: the perturbation knobs of RX.
//!
//! Qin et al.'s RX recovers from failures by re-executing the program in a
//! *modified* environment: padded allocations (defeats buffer overflows),
//! shuffled message orders (defeats order-sensitive races), dropped
//! priorities (defeats timing bugs), and throttled requests (defeats
//! overload). [`EnvConfig`] carries those knobs; its [`signature`] feeds
//! environment-sensitive fault activation, so perturbing any knob re-rolls
//! which inputs fail.
//!
//! [`signature`]: EnvConfig::signature

/// The configurable execution environment of a simulated process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EnvConfig {
    /// Bytes of padding inserted after each heap allocation.
    pub alloc_padding: u64,
    /// Seed perturbing message delivery order.
    pub msg_order_seed: u64,
    /// Scheduling priority (lower = slower, changes interleavings).
    pub priority: u8,
    /// Fraction of user requests admitted, in `[0, 1]` scaled by 1000
    /// (1000 = no throttling).
    pub throttle_permille: u16,
    /// Whether freshly allocated memory is zero-filled.
    pub zero_fill: bool,
}

impl EnvConfig {
    /// The pristine default environment.
    #[must_use]
    pub fn baseline() -> Self {
        Self {
            alloc_padding: 0,
            msg_order_seed: 0,
            priority: 10,
            throttle_permille: 1000,
            zero_fill: false,
        }
    }

    /// Returns this environment with heap padding (RX's buffer-overflow
    /// counter-measure).
    #[must_use]
    pub fn with_padding(mut self, padding: u64) -> Self {
        self.alloc_padding = padding;
        self
    }

    /// Returns this environment with a shuffled message order.
    #[must_use]
    pub fn with_message_shuffle(mut self, seed: u64) -> Self {
        self.msg_order_seed = seed;
        self
    }

    /// Returns this environment with a changed process priority.
    #[must_use]
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Returns this environment admitting `permille`/1000 of requests.
    ///
    /// # Panics
    ///
    /// Panics if `permille > 1000`.
    #[must_use]
    pub fn with_throttle(mut self, permille: u16) -> Self {
        assert!(permille <= 1000, "throttle is a permille value");
        self.throttle_permille = permille;
        self
    }

    /// Returns this environment with zero-filled allocations.
    #[must_use]
    pub fn with_zero_fill(mut self, zero_fill: bool) -> Self {
        self.zero_fill = zero_fill;
        self
    }

    /// A stable digest of the whole configuration. Equal environments have
    /// equal signatures; changing any knob changes it.
    #[must_use]
    pub fn signature(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            h = (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
            h ^= h >> 29;
        };
        mix(self.alloc_padding);
        mix(self.msg_order_seed);
        mix(u64::from(self.priority));
        mix(u64::from(self.throttle_permille));
        mix(u64::from(self.zero_fill));
        h
    }

    /// The standard RX perturbation sequence, tried in order after a
    /// failure: padding, zero-fill, message shuffle, priority drop,
    /// throttling (Qin et al., §4 of their paper, adapted).
    #[must_use]
    pub fn rx_perturbations(&self, round: u32) -> EnvConfig {
        match round % 5 {
            0 => self.with_padding(self.alloc_padding + 64),
            1 => self.with_zero_fill(!self.zero_fill),
            2 => self.with_message_shuffle(self.msg_order_seed.wrapping_add(0x9e37_79b9)),
            3 => self.with_priority(self.priority.saturating_sub(1)),
            _ => self.with_throttle(self.throttle_permille.saturating_sub(100).max(100)),
        }
    }
}

impl Default for EnvConfig {
    fn default() -> Self {
        Self::baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_is_default() {
        assert_eq!(EnvConfig::baseline(), EnvConfig::default());
    }

    #[test]
    fn signature_is_stable() {
        let a = EnvConfig::baseline();
        assert_eq!(a.signature(), EnvConfig::baseline().signature());
    }

    #[test]
    fn every_knob_changes_signature() {
        let base = EnvConfig::baseline();
        let variants = [
            base.with_padding(64),
            base.with_message_shuffle(1),
            base.with_priority(5),
            base.with_throttle(500),
            base.with_zero_fill(true),
        ];
        let base_sig = base.signature();
        let mut sigs = vec![base_sig];
        for v in variants {
            let s = v.signature();
            assert!(!sigs.contains(&s), "signature collision for {v:?}");
            sigs.push(s);
        }
    }

    #[test]
    fn rx_perturbations_cycle_all_knobs() {
        let mut env = EnvConfig::baseline();
        let mut seen = vec![env.signature()];
        for round in 0..5 {
            env = env.rx_perturbations(round);
            let s = env.signature();
            assert!(!seen.contains(&s), "round {round} did not change the env");
            seen.push(s);
        }
        assert!(env.alloc_padding > 0);
        assert!(env.zero_fill);
        assert_ne!(env.msg_order_seed, 0);
        assert!(env.priority < 10);
        assert!(env.throttle_permille < 1000);
    }

    #[test]
    #[should_panic(expected = "permille")]
    fn throttle_validates() {
        let _ = EnvConfig::baseline().with_throttle(2000);
    }
}
