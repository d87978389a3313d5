//! Process replicas / N-variant systems (paper §4.3; Cox 2006, Bruschi
//! 2007).
//!
//! The same program runs as N replicas in *artificially diversified
//! environments*: disjoint address-space partitions and variant-specific
//! instruction tags. A benign request behaves identically in every
//! replica; an attack — which must send the *same* input to all replicas
//! — cannot simultaneously compromise environments that disagree on
//! address layout and code tags, so at least one replica crashes or
//! diverges, and the implicit comparison detects the attack.
//!
//! Classification (Table 2): deliberate / environment / reactive-implicit
//! / malicious.

use std::sync::Arc;

use redundancy_core::obs::{ObsHandle, Observer, Point};
use redundancy_core::patterns::DecisionPolicy;
use redundancy_core::taxonomy::{
    Adjudication, ArchitecturalPattern, Classification, FaultSet, Intention, RedundancyType,
};
use redundancy_core::technique::TechniqueEntry;
use redundancy_sandbox::memory::SimMemory;
use redundancy_sandbox::vm::{tag_program, Instr, Opcode, TaggedVm};

/// Table 2 row for process replicas.
pub const ENTRY: TechniqueEntry = TechniqueEntry {
    name: "Process replicas",
    classification: Classification::new(
        Intention::Deliberate,
        RedundancyType::Environment,
        Adjudication::ReactiveImplicit,
        FaultSet::MALICIOUS,
    ),
    patterns: &[ArchitecturalPattern::ParallelEvaluation],
    citations: &["Cox 2006", "Bruschi 2007"],
};

/// A request processed by the replicated system.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// A benign computation: run `program` (opcodes) on `args`.
    Compute {
        /// Program opcodes (compiled with each replica's tag).
        program: Vec<Opcode>,
        /// Input arguments.
        args: Vec<i64>,
    },
    /// A memory attack writing `len` bytes at an absolute address.
    MemoryAttack {
        /// Target absolute address.
        addr: u64,
        /// Bytes written.
        len: u64,
    },
    /// A code-injection attack: `program` runs with `payload` spliced in
    /// at `position`, compiled with the attacker's (unknown) tag.
    CodeInjection {
        /// The legitimate program opcodes.
        program: Vec<Opcode>,
        /// Input arguments.
        args: Vec<i64>,
        /// The injected opcodes (attacker-supplied, untagged).
        payload: Vec<Opcode>,
        /// Where the payload is spliced.
        position: usize,
    },
}

/// What the replicated system concluded about a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplicaVerdict {
    /// All replicas agreed; the request was served.
    Agreed {
        /// The agreed result (computations only; attacks that "succeed"
        /// uniformly would also land here — see tests for why they
        /// cannot).
        result: Option<i64>,
    },
    /// Replicas diverged — the signature of an attack. Serving stops.
    AttackDetected {
        /// Per-replica observations (for forensics).
        observations: Vec<String>,
    },
}

impl ReplicaVerdict {
    /// Whether an attack was flagged.
    #[must_use]
    pub fn is_attack(&self) -> bool {
        matches!(self, ReplicaVerdict::AttackDetected { .. })
    }
}

struct Replica {
    tag: u16,
    memory: SimMemory,
    vm: TaggedVm,
}

/// An N-replica execution environment with disjoint address partitions
/// and per-replica instruction tags.
///
/// # Examples
///
/// ```
/// use redundancy_sandbox::vm::Opcode;
/// use redundancy_techniques::process_replicas::{ProcessReplicas, Request};
///
/// let mut replicas = ProcessReplicas::new(2);
/// let verdict = replicas.execute(&Request::Compute {
///     program: vec![Opcode::Arg(0), Opcode::Dup, Opcode::Mul],
///     args: vec![9],
/// });
/// assert!(!verdict.is_attack());
/// ```
pub struct ProcessReplicas {
    replicas: Vec<Replica>,
    /// Bytes each replica allocates at start (a victim buffer).
    victim_len: u64,
    obs: Option<ObsHandle>,
    policy: DecisionPolicy,
}

impl ProcessReplicas {
    /// Creates `n` replicas with disjoint partitions and distinct tags,
    /// each holding one victim buffer.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "need at least one replica");
        let victim_len = 256;
        let replicas = (0..n)
            .map(|i| {
                // Partition i occupies [i * 2^32, i * 2^32 + 2^20).
                let base = (i as u64) << 32;
                let mut memory = SimMemory::new(base.max(0x1000), 1 << 20);
                let _ = memory.alloc(victim_len).expect("partition fits victim");
                Replica {
                    tag: (i + 1) as u16,
                    memory,
                    vm: TaggedVm::new((i + 1) as u16),
                }
            })
            .collect();
        Self {
            replicas,
            victim_len,
            obs: None,
            policy: DecisionPolicy::Exhaustive,
        }
    }

    /// Sets the decision policy. Under [`DecisionPolicy::Eager`] serving
    /// stops at the *first* replica that diverges from replica 0 — the
    /// attack verdict is already fixed, so the remaining replicas never
    /// process the request and are recorded as skipped in the forensic
    /// observations. Benign (unanimous) requests still run everywhere.
    #[must_use]
    pub fn with_policy(mut self, policy: DecisionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The decision policy in effect.
    #[must_use]
    pub fn policy(&self) -> DecisionPolicy {
        self.policy
    }

    /// Attaches an observer; replica divergence emits a
    /// [`Point::ReplicaDivergence`] carrying the per-replica observations.
    #[must_use]
    pub fn with_observer(mut self, observer: Arc<dyn Observer>) -> Self {
        self.obs = Some(ObsHandle::new(observer));
        self
    }

    /// Number of replicas.
    #[must_use]
    pub fn replicas(&self) -> usize {
        self.replicas.len()
    }

    /// An address that is mapped in replica 0 — what an attacker who
    /// studied one variant would target.
    #[must_use]
    pub fn leaked_address(&self) -> u64 {
        self.replicas[0].memory.partition_base() + self.victim_len / 2
    }

    /// Processes a request replica by replica and compares behavior. Under
    /// [`DecisionPolicy::Eager`] the comparison is streamed: the first
    /// divergence fixes the attack verdict and the remaining replicas are
    /// skipped.
    pub fn execute(&mut self, request: &Request) -> ReplicaVerdict {
        let n = self.replicas.len();
        let policy = self.policy;
        let obs = self.obs.as_ref();
        match request {
            Request::Compute { program, args } => {
                let replicas = &self.replicas;
                streamed_comparison(policy, obs, n, |i| {
                    let r = &replicas[i];
                    let tagged: Vec<Instr> = tag_program(program, r.tag);
                    r.vm.execute(&tagged, args).map_err(|e| e.to_string())
                })
            }
            Request::MemoryAttack { addr, len } => {
                let replicas = &mut self.replicas;
                streamed_comparison(policy, obs, n, |i| {
                    replicas[i]
                        .memory
                        .write_absolute(*addr, *len)
                        .map(|()| 0)
                        .map_err(|e| e.to_string())
                })
            }
            Request::CodeInjection {
                program,
                args,
                payload,
                position,
            } => {
                let replicas = &self.replicas;
                streamed_comparison(policy, obs, n, |i| {
                    let r = &replicas[i];
                    let mut tagged: Vec<Instr> = tag_program(program, r.tag);
                    let injected: Vec<Instr> = tag_program(payload, 0); // attacker tag
                    let at = (*position).min(tagged.len());
                    for (k, instr) in injected.into_iter().enumerate() {
                        tagged.insert(at + k, instr);
                    }
                    r.vm.execute(&tagged, args).map_err(|e| e.to_string())
                })
            }
        }
    }
}

/// Runs `run(i)` for each replica, comparing against replica 0 as results
/// stream in. Exhaustive: every replica runs, then the full set is
/// compared — byte-identical to the historical behavior. Eager: the first
/// divergence fixes `AttackDetected`; replicas never run after it and are
/// recorded as skipped observations.
fn streamed_comparison(
    policy: DecisionPolicy,
    obs: Option<&ObsHandle>,
    n: usize,
    mut run: impl FnMut(usize) -> Result<i64, String>,
) -> ReplicaVerdict {
    let mut results: Vec<Result<i64, String>> = Vec::with_capacity(n);
    let mut executed = n;
    for i in 0..n {
        let result = run(i);
        let diverged = i > 0
            && !matches!(
                (&result, &results[0]),
                (Ok(a), Ok(b)) if a == b
            )
            && !matches!((&result, &results[0]), (Err(_), Err(_)));
        results.push(result);
        if diverged && policy == DecisionPolicy::Eager {
            executed = i + 1;
            break;
        }
    }
    let first = &results[0];
    let unanimous = results.iter().all(|r| match (r, first) {
        (Ok(a), Ok(b)) => a == b,
        (Err(_), Err(_)) => true, // all fail => consistent rejection
        _ => false,
    });
    if unanimous {
        ReplicaVerdict::Agreed {
            result: first.as_ref().ok().copied(),
        }
    } else {
        let mut observations: Vec<String> = results
            .into_iter()
            .map(|r| match r {
                Ok(v) => format!("completed with {v}"),
                Err(e) => format!("faulted: {e}"),
            })
            .collect();
        for _ in executed..n {
            observations.push(format!(
                "skipped: attack already detected after {executed} of {n} replicas"
            ));
        }
        if let Some(obs) = obs {
            // Divergence is the rare (attack) path, so interning the
            // joined observation report here is off the hot loop.
            let detail = redundancy_core::obs::Symbol::intern(&observations.join(" | "));
            obs.emit(0, move || Point::ReplicaDivergence { detail });
        }
        ReplicaVerdict::AttackDetected { observations }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_program() -> Vec<Opcode> {
        vec![Opcode::Arg(0), Opcode::Dup, Opcode::Mul]
    }

    #[test]
    fn benign_requests_agree() {
        let mut replicas = ProcessReplicas::new(3);
        let verdict = replicas.execute(&Request::Compute {
            program: square_program(),
            args: vec![12],
        });
        assert_eq!(verdict, ReplicaVerdict::Agreed { result: Some(144) });
    }

    #[test]
    fn absolute_address_attack_is_detected_with_two_replicas() {
        let mut replicas = ProcessReplicas::new(2);
        let target = replicas.leaked_address();
        let verdict = replicas.execute(&Request::MemoryAttack {
            addr: target,
            len: 8,
        });
        // Mapped in replica 0's partition, unmapped in replica 1's: the
        // divergence betrays the attack.
        assert!(verdict.is_attack());
        if let ReplicaVerdict::AttackDetected { observations } = verdict {
            assert!(observations[0].contains("completed"));
            assert!(observations[1].contains("faulted"));
        }
    }

    #[test]
    fn single_process_misses_the_same_attack() {
        // The unprotected baseline: one process, the write lands, nothing
        // is detected — silent compromise.
        let mut single = ProcessReplicas::new(1);
        let target = single.leaked_address();
        let verdict = single.execute(&Request::MemoryAttack {
            addr: target,
            len: 8,
        });
        assert!(!verdict.is_attack(), "single replica cannot detect");
    }

    #[test]
    fn code_injection_rejected_by_all_tagged_replicas() {
        let mut replicas = ProcessReplicas::new(2);
        let verdict = replicas.execute(&Request::CodeInjection {
            program: square_program(),
            args: vec![5],
            payload: vec![Opcode::Push(0x41), Opcode::Add],
            position: 1,
        });
        // Every tagged replica faults on the untagged payload: consistent
        // rejection — the attack is stopped (fail-stop, not divergence).
        match verdict {
            ReplicaVerdict::Agreed { result } => assert_eq!(result, None),
            ReplicaVerdict::AttackDetected { .. } => {}
        }
        // Either way the payload never executed anywhere. Compare with an
        // untagged VM, which runs it happily:
        let untagged = TaggedVm::untagged();
        let mut program = tag_program(&square_program(), 0);
        program.insert(
            1,
            Instr {
                tag: 0,
                op: Opcode::Push(0x41),
            },
        );
        assert!(untagged.execute(&program, &[5]).is_ok());
    }

    #[test]
    fn attacks_missing_every_partition_fail_stop_everywhere() {
        let mut replicas = ProcessReplicas::new(3);
        let verdict = replicas.execute(&Request::MemoryAttack {
            addr: 0xffff_ffff_ffff_0000,
            len: 8,
        });
        // All replicas fault identically: the attack is stopped even
        // without divergence.
        match verdict {
            ReplicaVerdict::Agreed { result } => assert_eq!(result, None),
            ReplicaVerdict::AttackDetected { .. } => panic!("uniform faults are fail-stop"),
        }
    }

    #[test]
    fn detection_rate_over_address_sweep() {
        // Sweep attack addresses across replica 0's partition: with >= 2
        // replicas, every mapped-in-0 address is detected.
        let mut replicas = ProcessReplicas::new(2);
        let base = replicas.replicas[0].memory.partition_base();
        let mut detected = 0;
        let mut tried = 0;
        for offset in (0..256u64).step_by(16) {
            let verdict = replicas.execute(&Request::MemoryAttack {
                addr: base + offset,
                len: 4,
            });
            tried += 1;
            if verdict.is_attack() {
                detected += 1;
            }
        }
        assert_eq!(detected, tried, "all in-partition attacks must be caught");
    }

    #[test]
    fn eager_policy_stops_replicas_at_first_divergence() {
        let mut eager = ProcessReplicas::new(4).with_policy(DecisionPolicy::Eager);
        assert_eq!(eager.policy(), DecisionPolicy::Eager);
        let target = eager.leaked_address();
        let verdict = eager.execute(&Request::MemoryAttack {
            addr: target,
            len: 8,
        });
        assert!(verdict.is_attack());
        if let ReplicaVerdict::AttackDetected { observations } = verdict {
            // Replica 1 diverges from replica 0; replicas 2 and 3 never
            // process the request.
            assert_eq!(observations.len(), 4);
            assert!(observations[0].contains("completed"));
            assert!(observations[1].contains("faulted"));
            assert!(observations[2].starts_with("skipped"));
            assert!(observations[3].starts_with("skipped"));
        }
    }

    #[test]
    fn eager_policy_matches_exhaustive_verdicts() {
        let mut exhaustive = ProcessReplicas::new(3);
        let mut eager = ProcessReplicas::new(3).with_policy(DecisionPolicy::Eager);
        let requests = vec![
            Request::Compute {
                program: square_program(),
                args: vec![7],
            },
            Request::MemoryAttack {
                addr: exhaustive.leaked_address(),
                len: 8,
            },
            Request::MemoryAttack {
                addr: 0xffff_ffff_ffff_0000,
                len: 8,
            },
            Request::CodeInjection {
                program: square_program(),
                args: vec![5],
                payload: vec![Opcode::Push(0x41), Opcode::Add],
                position: 1,
            },
        ];
        for request in &requests {
            let a = exhaustive.execute(request);
            let b = eager.execute(request);
            assert_eq!(a.is_attack(), b.is_attack(), "{request:?}");
            if let (ReplicaVerdict::Agreed { result: ra }, ReplicaVerdict::Agreed { result: rb }) =
                (&a, &b)
            {
                assert_eq!(ra, rb, "{request:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn zero_replicas_panics() {
        let _ = ProcessReplicas::new(0);
    }

    #[test]
    fn entry_matches_table2() {
        assert_eq!(ENTRY.classification.faults, FaultSet::MALICIOUS);
        assert_eq!(
            ENTRY.classification.adjudication,
            Adjudication::ReactiveImplicit
        );
        assert_eq!(ENTRY.classification.redundancy, RedundancyType::Environment);
        assert_eq!(ENTRY.name, "Process replicas");
        assert_eq!(ProcessReplicas::new(1).replicas(), 1);
    }
}
