//! Recovery blocks (paper §4.1; Randell 1975).
//!
//! Independently designed alternates execute *sequentially*: the primary
//! runs first; an explicitly designed acceptance test judges its result;
//! on rejection the system rolls back to a consistent state and tries the
//! next alternate. Compared to N-version programming, execution cost is
//! paid only on failure, but the adjudicator must be designed explicitly
//! and its coverage bounds the achievable reliability (experiment E6).
//!
//! Classification (Table 2): deliberate / code / reactive-explicit /
//! development.

use std::sync::Arc;

use std::sync::Mutex;

use redundancy_core::adjudicator::acceptance::AcceptanceTest;
use redundancy_core::context::ExecContext;
use redundancy_core::patterns::{
    run_technique_span, verdict_status, PatternReport, SequentialAlternatives,
};
use redundancy_core::taxonomy::{
    Adjudication, ArchitecturalPattern, Classification, FaultSet, Intention, RedundancyType,
};
use redundancy_core::technique::TechniqueEntry;
use redundancy_core::variant::BoxedVariant;
use redundancy_sandbox::process::{ProcessCheckpoint, SimProcess};

/// Table 2 row for recovery blocks.
pub const ENTRY: TechniqueEntry = TechniqueEntry {
    name: "Recovery blocks",
    classification: Classification::new(
        Intention::Deliberate,
        RedundancyType::Code,
        Adjudication::ReactiveExplicit,
        FaultSet::DEVELOPMENT,
    ),
    patterns: &[ArchitecturalPattern::SequentialAlternatives],
    citations: &["Randell 1975", "Dobson 2006"],
};

/// A recovery-block structure: `ensure <test> by <primary> else by
/// <alternate> ... else error`.
///
/// When a [`SimProcess`] is attached, the block checkpoints it before the
/// primary and restores the checkpoint before every alternate — Randell's
/// recovery cache.
///
/// # Examples
///
/// ```
/// use redundancy_core::adjudicator::acceptance::FnAcceptance;
/// use redundancy_core::context::ExecContext;
/// use redundancy_core::variant::pure_variant;
/// use redundancy_techniques::recovery_blocks::RecoveryBlocks;
///
/// let rb = RecoveryBlocks::new(FnAcceptance::new("nonneg", |_: &i64, out: &i64| *out >= 0))
///     .with_alternate(pure_variant("primary", 10, |_x: &i64| -1)) // faulty
///     .with_alternate(pure_variant("backup", 30, |x: &i64| x * 2));
/// let mut ctx = ExecContext::new(0);
/// assert_eq!(rb.run(&4, &mut ctx).into_output(), Some(8));
/// ```
pub struct RecoveryBlocks<I, O> {
    pattern: SequentialAlternatives<I, O>,
    alternates: usize,
    checkpoint_setup: Option<CheckpointSetup>,
}

type CheckpointSetup = (
    Arc<Mutex<SimProcess>>,
    Arc<Mutex<Option<ProcessCheckpoint>>>,
);

impl<I, O> RecoveryBlocks<I, O> {
    /// Creates a recovery-block structure with the given acceptance test.
    #[must_use]
    pub fn new(test: impl AcceptanceTest<I, O> + 'static) -> Self {
        Self {
            pattern: SequentialAlternatives::new(test),
            alternates: 0,
            checkpoint_setup: None,
        }
    }

    /// Adds an alternate (the first added is the primary).
    #[must_use]
    pub fn with_alternate(mut self, alternate: BoxedVariant<I, O>) -> Self {
        self.pattern.push_variant(alternate);
        self.alternates += 1;
        self
    }

    /// Attaches a process whose state is checkpointed before the primary
    /// and restored before each alternate.
    #[must_use]
    pub fn with_process(self, process: Arc<Mutex<SimProcess>>) -> Self {
        let checkpoint: Arc<Mutex<Option<ProcessCheckpoint>>> = Arc::new(Mutex::new(None));
        let ckpt = Arc::clone(&checkpoint);
        let proc_for_rollback = Arc::clone(&process);
        let mut this = self;
        this.pattern = this.pattern.with_rollback(move |_ctx| {
            let mut proc = proc_for_rollback
                .lock()
                .expect("recovery-block state lock is never poisoned");
            if let Some(saved) = ckpt
                .lock()
                .expect("recovery-block state lock is never poisoned")
                .as_ref()
            {
                proc.restore(saved);
            }
        });
        // Wrap the run by taking the checkpoint lazily on first attempt:
        // store it in the shared slot at run entry via the stored closure.
        this.checkpoint_setup = Some((process, checkpoint));
        this
    }

    /// Number of alternates (including the primary).
    #[must_use]
    pub fn alternates(&self) -> usize {
        self.alternates
    }

    /// Runs the recovery block.
    pub fn run(&self, input: &I, ctx: &mut ExecContext) -> PatternReport<O>
    where
        O: Clone,
    {
        run_technique_span(
            ctx,
            "recovery-blocks",
            |ctx| {
                if let Some((process, slot)) = &self.checkpoint_setup {
                    *slot
                        .lock()
                        .expect("recovery-block state lock is never poisoned") = Some(
                        process
                            .lock()
                            .expect("recovery-block state lock is never poisoned")
                            .checkpoint(),
                    );
                    ctx.obs_emit(|| redundancy_core::obs::Point::Checkpoint {
                        label: "sim-process",
                    });
                }
                self.pattern.run(input, ctx)
            },
            |report| verdict_status(&report.verdict),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redundancy_core::adjudicator::acceptance::FnAcceptance;
    use redundancy_core::outcome::VariantFailure;
    use redundancy_core::variant::pure_variant;
    use redundancy_core::variant::FnVariant;

    fn nonneg() -> FnAcceptance<impl Fn(&i64, &i64) -> bool> {
        FnAcceptance::new("nonneg", |_: &i64, out: &i64| *out >= 0)
    }

    #[test]
    fn primary_cost_only_when_primary_passes() {
        let rb = RecoveryBlocks::new(nonneg())
            .with_alternate(pure_variant("primary", 10, |x: &i64| x + 1))
            .with_alternate(pure_variant("backup", 100, |x: &i64| x + 2));
        let mut ctx = ExecContext::new(0);
        let report = rb.run(&1, &mut ctx);
        assert_eq!(report.into_output(), Some(2));
        assert_eq!(ctx.cost().virtual_ns, 10, "backup must not have run");
    }

    #[test]
    fn falls_through_on_rejection_and_crash() {
        let crasher: BoxedVariant<i64, i64> =
            Box::new(FnVariant::new("crasher", |_: &i64, _: &mut ExecContext| {
                Err(VariantFailure::crash("boom"))
            }));
        let rb = RecoveryBlocks::new(nonneg())
            .with_alternate(pure_variant("bad-output", 5, |_: &i64| -7))
            .with_alternate(crasher)
            .with_alternate(pure_variant("good", 5, |x: &i64| x * 3));
        let mut ctx = ExecContext::new(0);
        assert_eq!(rb.run(&3, &mut ctx).into_output(), Some(9));
        assert_eq!(rb.alternates(), 3);
    }

    #[test]
    fn acceptance_coverage_bounds_reliability() {
        // A weak acceptance test (accepts everything) lets the faulty
        // primary's wrong output through: the explicit adjudicator is the
        // bottleneck, exactly the §4.1 trade-off.
        let weak = FnAcceptance::new("weak", |_: &i64, _: &i64| true);
        let rb = RecoveryBlocks::new(weak)
            .with_alternate(pure_variant("faulty", 5, |_: &i64| -7))
            .with_alternate(pure_variant("good", 5, |x: &i64| *x));
        let mut ctx = ExecContext::new(0);
        assert_eq!(rb.run(&3, &mut ctx).into_output(), Some(-7));
    }

    #[test]
    fn process_state_rolls_back_between_alternates() {
        let process = Arc::new(Mutex::new(SimProcess::new(1, 0, 0x1000)));
        process
            .lock()
            .expect("recovery-block state lock is never poisoned")
            .set("balance", 100);

        // The faulty primary corrupts the balance then produces a bad
        // output; the alternate must observe the original balance.
        let p1 = Arc::clone(&process);
        let primary: BoxedVariant<i64, i64> = Box::new(FnVariant::new(
            "corrupting-primary",
            move |_: &i64, _: &mut ExecContext| {
                p1.lock()
                    .expect("recovery-block state lock is never poisoned")
                    .set("balance", -999);
                Ok(-1)
            },
        ));
        let p2 = Arc::clone(&process);
        let alternate: BoxedVariant<i64, i64> = Box::new(FnVariant::new(
            "alternate",
            move |x: &i64, _: &mut ExecContext| {
                let balance = p2
                    .lock()
                    .expect("recovery-block state lock is never poisoned")
                    .get("balance")
                    .unwrap_or(0);
                Ok(balance + x)
            },
        ));
        let rb = RecoveryBlocks::new(nonneg())
            .with_alternate(primary)
            .with_alternate(alternate)
            .with_process(Arc::clone(&process));
        let mut ctx = ExecContext::new(0);
        let out = rb.run(&1, &mut ctx).into_output();
        assert_eq!(out, Some(101), "alternate saw corrupted state");
        assert_eq!(
            process
                .lock()
                .expect("recovery-block state lock is never poisoned")
                .get("balance"),
            Some(100)
        );
    }

    #[test]
    fn exhausting_alternates_reports_rejection() {
        let rb = RecoveryBlocks::new(nonneg())
            .with_alternate(pure_variant("a", 1, |_: &i64| -1))
            .with_alternate(pure_variant("b", 1, |_: &i64| -2));
        let mut ctx = ExecContext::new(0);
        assert!(!rb.run(&1, &mut ctx).is_accepted());
    }

    #[test]
    fn entry_matches_table2() {
        assert_eq!(ENTRY.classification.intention, Intention::Deliberate);
        assert_eq!(ENTRY.classification.redundancy, RedundancyType::Code);
        assert_eq!(
            ENTRY.classification.adjudication,
            Adjudication::ReactiveExplicit
        );
        assert_eq!(ENTRY.classification.faults, FaultSet::DEVELOPMENT);
        assert_eq!(ENTRY.name, "Recovery blocks");
        assert_eq!(
            ENTRY.patterns,
            &[ArchitecturalPattern::SequentialAlternatives]
        );
    }
}
