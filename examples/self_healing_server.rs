//! Environment redundancy end to end: an aging application server kept
//! alive by preventive rejuvenation, RX-style perturbed re-execution for
//! request-level failures, and escalating micro-reboots for component
//! corruption (paper §§4.3 and 5.2).
//!
//! Run with: `cargo run --example self_healing_server`

use redundancy::core::adjudicator::acceptance::AcceptAll;
use redundancy::core::context::ExecContext;
use redundancy::core::rng::SplitMix64;
use redundancy::faults::{Activation, FaultEffect, FaultSpec, FaultyVariant};
use redundancy::techniques::env_perturbation::{Rx, RxOutcome};
use redundancy::techniques::microreboot::{ComponentTree, RebootPolicy};
use redundancy::techniques::rejuvenation::Rejuvenator;

fn main() {
    let mut ctx = ExecContext::new(2026);
    let requests: u64 = 4_000;

    // --- Layer 1: rejuvenation against aging -----------------------------
    // The request handler leaks; its crash hazard grows with age.
    let handler = FaultyVariant::builder("handler", 5, |req: &u64| req % 97)
        .fault(FaultSpec::aging("slow-leak", 0.0, 0.0008))
        .build();
    let age = handler.age_handle();
    let rejuvenated = Rejuvenator::new(Box::new(handler), age, 100, 25);

    let mut served = 0u64;
    let mut dropped = 0u64;
    for req in 0..requests {
        if rejuvenated.call(&req, &mut ctx).is_ok() {
            served += 1;
        } else {
            dropped += 1;
        }
    }
    println!("layer 1 — rejuvenation every 100 requests:");
    println!(
        "  served {served}/{requests} ({} rejuvenations, {dropped} dropped)",
        rejuvenated.rejuvenations()
    );

    // --- Layer 2: RX for environment-dependent request failures ----------
    let fragile = FaultyVariant::builder("parser", 8, |req: &u64| req * 3)
        .fault(FaultSpec::new(
            "layout-sensitive-overflow",
            Activation::EnvSensitive {
                density: 0.25,
                salt: 11,
            },
            FaultEffect::Crash,
        ))
        .build();
    let env = fragile.env_signature();
    let rx = Rx::new(Box::new(fragile), env, AcceptAll, 5);
    let mut clean = 0u64;
    let mut healed = 0u64;
    let mut lost = 0u64;
    for req in 0..requests {
        match rx.execute(&req, &mut ctx) {
            RxOutcome::CleanRun(_) => clean += 1,
            RxOutcome::Recovered { .. } => healed += 1,
            RxOutcome::Failed(_) => lost += 1,
        }
    }
    println!("\nlayer 2 — RX perturbed re-execution:");
    println!("  clean {clean}, healed {healed}, lost {lost}");

    // --- Layer 3: micro-reboots for component corruption -----------------
    let mut tree = ComponentTree::jagr_demo();
    let mut rng = SplitMix64::new(5);
    let mut downtime = 0u64;
    let mut reboots = 0u32;
    for _ in 0..40 {
        let tier = ["web", "app", "db"][rng.index(3)];
        let leaf = format!("{tier}-c{}", rng.index(4));
        tree.corrupt(&leaf, usize::from(rng.chance(0.25)));
        let record = tree.recover(&leaf, RebootPolicy::Escalating);
        assert!(record.cured);
        downtime += record.recovery_time;
        reboots += record.reboots;
    }
    println!("\nlayer 3 — escalating micro-reboots over 40 corruption events:");
    println!(
        "  total downtime {downtime} (avg {}), {reboots} reboot operations",
        downtime / 40
    );
    let mut full_tree = ComponentTree::jagr_demo();
    full_tree.corrupt("db-c0", 0);
    let full = full_tree.recover("db-c0", RebootPolicy::Full);
    println!(
        "  (a single full reboot would cost {} per event)",
        full.recovery_time
    );

    println!("\ntotal virtual time: {} ns", ctx.cost().virtual_ns);
}
