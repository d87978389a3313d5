//! Experiment E9 — security through environment/data diversity (Cox 2006,
//! Bruschi 2007, Nguyen-Tuong 2008): attack-stopping rates of process
//! replicas (address partitioning, instruction tagging) and N-variant
//! data, against an unprotected baseline.
//!
//! Expected shape: the unprotected baseline silently serves every attack;
//! with ≥ 2 replicas/variants, every modeled attack is detected or
//! fail-stopped.

use redundancy_core::rng::SplitMix64;
use redundancy_sandbox::vm::Opcode;
use redundancy_sim::parallel_tasks;
use redundancy_sim::table::Table;
use redundancy_techniques::nvariant_data::NVariantCell;
use redundancy_techniques::process_replicas::{ProcessReplicas, ReplicaVerdict, Request};

use crate::fmt_rate;

/// Outcome counts over an attack campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttackStats {
    /// Attacks detected via divergence.
    pub detected: usize,
    /// Attacks stopped by uniform fail-stop (all replicas faulted).
    pub failstopped: usize,
    /// Attacks that silently succeeded.
    pub compromised: usize,
}

impl AttackStats {
    /// Fraction of attacks that did *not* silently succeed.
    #[must_use]
    pub fn stopped_rate(&self, total: usize) -> f64 {
        1.0 - self.compromised as f64 / total as f64
    }
}

/// Runs `trials` absolute-address attacks against `n` replicas.
#[must_use]
pub fn memory_attacks(n: usize, trials: usize, seed: u64) -> AttackStats {
    let mut rng = SplitMix64::new(seed);
    let mut stats = AttackStats {
        detected: 0,
        failstopped: 0,
        compromised: 0,
    };
    for _ in 0..trials {
        let mut replicas = ProcessReplicas::new(n);
        // The attacker studied one variant: targets an address valid there.
        let addr = replicas.leaked_address() + rng.range_u64(0, 128);
        match replicas.execute(&Request::MemoryAttack { addr, len: 8 }) {
            ReplicaVerdict::AttackDetected { .. } => stats.detected += 1,
            ReplicaVerdict::Agreed { result: None } => stats.failstopped += 1,
            ReplicaVerdict::Agreed { result: Some(_) } => stats.compromised += 1,
        }
    }
    stats
}

/// Runs `trials` code-injection attacks against `n` replicas.
#[must_use]
pub fn injection_attacks(n: usize, trials: usize, seed: u64) -> AttackStats {
    let mut rng = SplitMix64::new(seed);
    let mut stats = AttackStats {
        detected: 0,
        failstopped: 0,
        compromised: 0,
    };
    let program = vec![Opcode::Arg(0), Opcode::Dup, Opcode::Mul];
    for _ in 0..trials {
        let mut replicas = ProcessReplicas::new(n);
        let request = Request::CodeInjection {
            program: program.clone(),
            args: vec![rng.range_i64(1, 100)],
            payload: vec![Opcode::Push(rng.range_i64(0, 1 << 16)), Opcode::Add],
            position: rng.index(program.len() + 1),
        };
        match replicas.execute(&request) {
            ReplicaVerdict::AttackDetected { .. } => stats.detected += 1,
            ReplicaVerdict::Agreed { result: None } => stats.failstopped += 1,
            ReplicaVerdict::Agreed { result: Some(_) } => stats.compromised += 1,
        }
    }
    stats
}

/// Runs `trials` data-corruption attacks against N-variant cells.
#[must_use]
pub fn data_attacks(n: usize, trials: usize, seed: u64) -> AttackStats {
    let mut rng = SplitMix64::new(seed);
    let mut stats = AttackStats {
        detected: 0,
        failstopped: 0,
        compromised: 0,
    };
    for t in 0..trials {
        if n < 2 {
            // A single-representation cell accepts the overwrite silently.
            stats.compromised += 1;
            continue;
        }
        let mut cell = NVariantCell::new(n, seed ^ t as u64);
        cell.write(rng.next_u64());
        cell.attack_overwrite(rng.next_u64());
        if cell.read().is_err() {
            stats.detected += 1;
        } else {
            stats.compromised += 1;
        }
    }
    stats
}

/// Builds the E9 table: stop rate per attack type and replica count, with
/// the replica-count sweep sharded across up to `jobs` worker threads;
/// every campaign seeds its own RNG, so the table is identical for any
/// `jobs`.
#[must_use]
pub fn run(trials: usize, seed: u64, jobs: usize) -> Table {
    let mut table = Table::new(&[
        "replicas/variants",
        "memory attacks stopped",
        "code injection stopped",
        "data corruption stopped",
    ]);
    let counts = [1usize, 2, 3, 5];
    let tasks: Vec<_> = counts
        .iter()
        .map(|&n| {
            move || {
                (
                    memory_attacks(n, trials, seed).stopped_rate(trials),
                    injection_attacks(n, trials, seed).stopped_rate(trials),
                    data_attacks(n, trials, seed).stopped_rate(trials),
                )
            }
        })
        .collect();
    let results = parallel_tasks(jobs, tasks);
    for (n, (memory, injection, data)) in counts.iter().zip(results) {
        table.row_owned(vec![
            n.to_string(),
            fmt_rate(memory),
            fmt_rate(injection),
            fmt_rate(data),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: usize = 300;
    const SEED: u64 = 0xe9;

    #[test]
    fn unprotected_baseline_is_fully_compromised_by_memory_attacks() {
        let stats = memory_attacks(1, T, SEED);
        assert_eq!(stats.compromised, T);
        assert!(stats.stopped_rate(T).abs() < f64::EPSILON);
    }

    #[test]
    fn two_replicas_stop_every_memory_attack() {
        let stats = memory_attacks(2, T, SEED);
        assert_eq!(stats.compromised, 0);
        assert!(stats.detected > 0, "in-partition attacks diverge");
    }

    #[test]
    fn tagging_stops_injection_even_for_one_replica() {
        // A single *tagged* replica already rejects untagged payloads —
        // fail-stop rather than divergence.
        let one = injection_attacks(1, T, SEED);
        assert_eq!(one.compromised, 0);
        let three = injection_attacks(3, T, SEED);
        assert_eq!(three.compromised, 0);
    }

    #[test]
    fn data_variants_detect_uniform_overwrites() {
        assert_eq!(data_attacks(1, T, SEED).compromised, T);
        assert_eq!(data_attacks(2, T, SEED).compromised, 0);
        assert_eq!(data_attacks(5, T, SEED).compromised, 0);
    }

    #[test]
    fn table_renders_four_rows() {
        assert_eq!(run(50, SEED, 1).len(), 4);
    }

    #[test]
    fn table_is_identical_for_any_job_count() {
        crate::assert_jobs_invariant!(|jobs| run(50, SEED, jobs));
    }
}
