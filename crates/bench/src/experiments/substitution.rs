//! Experiment E12 — dynamic service substitution: process success rate
//! vs the number of alternative providers, with and without interface
//! converters.
//!
//! Expected shape: availability ≈ 1 − p^n for n exact-interface
//! providers; converters extend the pool and push availability further.

use std::sync::Arc;

use redundancy_core::context::ExecContext;
use redundancy_services::provider::SimProvider;
use redundancy_services::registry::{Converter, InterfaceId};
use redundancy_services::value::Value;
use redundancy_sim::parallel_tasks;
use redundancy_sim::table::Table;
use redundancy_techniques::service_substitution::{replicated_registry, DynamicSubstitution};

use crate::fmt_rate;

const FAIL: f64 = 0.4;

/// Availability with `n` exact providers (no converters).
#[must_use]
pub fn availability_exact(n: usize, trials: usize, seed: u64) -> f64 {
    let registry = replicated_registry("svc", n, FAIL);
    let sub = DynamicSubstitution::new(&registry);
    let mut ctx = ExecContext::new(seed);
    let ok = (0..trials)
        .filter(|_| {
            sub.invoke(&InterfaceId::new("svc"), "echo", &[Value::Int(1)], &mut ctx)
                .is_ok()
        })
        .count();
    ok as f64 / trials as f64
}

/// Availability with `n` exact providers plus `similar` convertible ones.
#[must_use]
pub fn availability_with_converters(n: usize, similar: usize, trials: usize, seed: u64) -> f64 {
    let mut registry = replicated_registry("svc", n, FAIL);
    for i in 0..similar {
        registry.register(Arc::new(
            SimProvider::builder(format!("similar{i}"), InterfaceId::new("svc2"))
                .fail_prob(FAIL)
                .operation("echo2", |args, _| {
                    Ok(args.first().cloned().unwrap_or(Value::Null))
                })
                .build(),
        ));
    }
    registry.register_converter(
        Converter::new(InterfaceId::new("svc"), InterfaceId::new("svc2"))
            .map_operation("echo", "echo2"),
    );
    let sub = DynamicSubstitution::new(&registry);
    let mut ctx = ExecContext::new(seed);
    let ok = (0..trials)
        .filter(|_| {
            sub.invoke(&InterfaceId::new("svc"), "echo", &[Value::Int(1)], &mut ctx)
                .is_ok()
        })
        .count();
    ok as f64 / trials as f64
}

/// Builds the E12 table, with the provider-count sweep sharded across up to
/// `jobs` worker threads; every row builds its own registry and context, so
/// the table is identical for any `jobs`.
#[must_use]
pub fn run(trials: usize, seed: u64, jobs: usize) -> Table {
    let mut table = Table::new(&[
        "providers",
        "availability (exact only)",
        "+2 similar via converter",
        "1 - p^n (prediction)",
    ]);
    let counts = [1usize, 2, 3, 4, 5];
    let tasks: Vec<_> = counts
        .iter()
        .map(|&n| {
            move || {
                (
                    availability_exact(n, trials, seed),
                    availability_with_converters(n, 2, trials, seed),
                )
            }
        })
        .collect();
    let results = parallel_tasks(jobs, tasks);
    for (n, (exact, converted)) in counts.iter().zip(results) {
        table.row_owned(vec![
            n.to_string(),
            fmt_rate(exact),
            fmt_rate(converted),
            fmt_rate(1.0 - FAIL.powi(*n as i32)),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: usize = 2000;
    const SEED: u64 = 0xe12;

    #[test]
    fn availability_tracks_one_minus_p_to_the_n() {
        for n in [1usize, 2, 3] {
            let a = availability_exact(n, T, SEED);
            let predicted = 1.0 - FAIL.powi(n as i32);
            assert!((a - predicted).abs() < 0.04, "n={n}: {a} vs {predicted}");
        }
    }

    #[test]
    fn converters_raise_availability() {
        let without = availability_exact(2, T, SEED);
        let with = availability_with_converters(2, 2, T, SEED);
        assert!(with > without + 0.05, "with {with} vs without {without}");
        let predicted = 1.0 - FAIL.powi(4);
        assert!(
            (with - predicted).abs() < 0.04,
            "with {with} vs {predicted}"
        );
    }

    #[test]
    fn table_renders_five_rows() {
        assert_eq!(run(300, SEED, 1).len(), 5);
    }

    #[test]
    fn table_is_identical_for_any_job_count() {
        crate::assert_jobs_invariant!(|jobs| run(300, SEED, jobs));
    }
}
