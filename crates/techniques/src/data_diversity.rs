//! Data diversity (paper §4.2; Ammann & Knight 1988).
//!
//! Instead of diversifying the *code*, data diversity re-expresses the
//! *input*: a failure that depends on a specific input condition can be
//! avoided by running the same program on a logically equivalent input.
//! Ammann and Knight's two embodiments are both here:
//!
//! - [`RetryBlock`] — on failure, re-express the input and try again
//!   (sequential-alternatives pattern, explicit adjudicator);
//! - [`NCopy`] — run the program on several re-expressions in parallel
//!   and vote (parallel-evaluation pattern, implicit adjudicator).
//!
//! An *exact* re-expression comes with a decoder mapping the output back,
//! so results stay comparable.
//!
//! Classification (Table 2): deliberate / data / reactive-expl./impl. /
//! development.

use std::sync::Arc;

use redundancy_core::adjudicator::voting::MajorityVoter;
use redundancy_core::context::ExecContext;
use redundancy_core::obs::{Point, Symbol};
use redundancy_core::outcome::{RejectionReason, VariantOutcome, Verdict};
use redundancy_core::patterns::{
    emit_verdict, run_technique_span, verdict_status, DecisionPolicy, ParallelEvaluation,
};
use redundancy_core::taxonomy::{
    Adjudication, ArchitecturalPattern, Classification, FaultSet, Intention, RedundancyType,
};
use redundancy_core::technique::TechniqueEntry;
use redundancy_core::variant::{run_contained, BoxedVariant, FnVariant, Variant};

/// Table 2 row for data diversity.
pub const ENTRY: TechniqueEntry = TechniqueEntry {
    name: "Data diversity",
    classification: Classification::new(
        Intention::Deliberate,
        RedundancyType::Data,
        Adjudication::ReactiveMixed,
        FaultSet::DEVELOPMENT,
    ),
    patterns: &[
        ArchitecturalPattern::ParallelEvaluation,
        ArchitecturalPattern::SequentialAlternatives,
    ],
    citations: &["Ammann & Knight 1988"],
};

/// An exact input re-expression: `decode(f(encode(x))) == f(x)` for a
/// correct `f`.
pub struct ReExpression<I, O> {
    name: String,
    encode: Box<dyn Fn(&I) -> I + Send + Sync>,
    decode: Box<dyn Fn(O) -> O + Send + Sync>,
}

impl<I, O> ReExpression<I, O> {
    /// Creates a re-expression from an encoder and the matching output
    /// decoder.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        encode: impl Fn(&I) -> I + Send + Sync + 'static,
        decode: impl Fn(O) -> O + Send + Sync + 'static,
    ) -> Self {
        Self {
            name: name.into(),
            encode: Box::new(encode),
            decode: Box::new(decode),
        }
    }

    /// The identity re-expression.
    #[must_use]
    pub fn identity() -> Self
    where
        I: Clone + 'static,
        O: 'static,
    {
        Self::new("identity", I::clone, |o| o)
    }

    /// The re-expression's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Encodes an input.
    #[must_use]
    pub fn encode(&self, input: &I) -> I {
        (self.encode)(input)
    }

    /// Decodes an output.
    #[must_use]
    pub fn decode(&self, output: O) -> O {
        (self.decode)(output)
    }
}

/// Wraps a program so that it executes on a re-expressed input and
/// decodes the result — one "copy" of N-copy programming.
fn reexpressed_variant<I, O>(
    program: Arc<dyn Variant<I, O>>,
    re: ReExpression<I, O>,
) -> BoxedVariant<I, O>
where
    I: Send + Sync + 'static,
    O: Send + Sync + 'static,
{
    let name = format!("{}@{}", program.name(), re.name());
    Box::new(FnVariant::new(
        name,
        move |input: &I, ctx: &mut ExecContext| {
            let encoded = re.encode(input);
            program.execute(&encoded, ctx).map(|o| re.decode(o))
        },
    ))
}

type AcceptFn<I, O> = Box<dyn Fn(&I, &O) -> bool + Send + Sync>;

/// Ammann–Knight retry blocks: run the program; if the (explicit)
/// acceptance check rejects, re-express the input and retry. Like
/// [`NCopy`], each re-expressed copy of the program is built once, when
/// its re-expression is added.
pub struct RetryBlock<I, O> {
    program: Arc<dyn Variant<I, O>>,
    /// The copies in retry order (identity first), each with its
    /// re-expression's name for the trace.
    copies: Vec<(Symbol, BoxedVariant<I, O>)>,
    accept: AcceptFn<I, O>,
}

impl<I, O> RetryBlock<I, O>
where
    I: Send + Sync + 'static,
    O: Send + Sync + 'static,
{
    /// Creates a retry block around `program` with an acceptance check.
    /// The identity re-expression is always tried first.
    #[must_use]
    pub fn new(
        program: impl Variant<I, O> + 'static,
        accept: impl Fn(&I, &O) -> bool + Send + Sync + 'static,
    ) -> Self
    where
        I: Clone,
    {
        Self {
            program: Arc::new(program),
            copies: Vec::new(),
            accept: Box::new(accept),
        }
        .with_reexpression(ReExpression::identity())
    }

    /// Adds a re-expression to try on failure.
    #[must_use]
    pub fn with_reexpression(mut self, re: ReExpression<I, O>) -> Self {
        let name = Symbol::intern(re.name());
        self.copies
            .push((name, reexpressed_variant(Arc::clone(&self.program), re)));
        self
    }

    /// Number of re-expressions (including identity).
    #[must_use]
    pub fn reexpressions(&self) -> usize {
        self.copies.len()
    }

    /// Runs the retry block.
    pub fn run(&self, input: &I, ctx: &mut ExecContext) -> Verdict<O> {
        run_technique_span(
            ctx,
            "retry-block",
            |ctx| {
                let verdict = self.run_inner(input, ctx);
                emit_verdict(ctx, &verdict);
                verdict
            },
            verdict_status,
        )
    }

    fn run_inner(&self, input: &I, ctx: &mut ExecContext) -> Verdict<O> {
        for (i, (name, copy)) in self.copies.iter().enumerate() {
            if i > 0 {
                ctx.obs_emit(|| Point::Reexpression {
                    name: *name,
                    attempt: u32::try_from(i).unwrap_or(u32::MAX),
                });
            }
            let mut child = ctx.fork(i as u64);
            let outcome: VariantOutcome<O> = run_contained(copy.as_ref(), input, &mut child);
            ctx.join(child);
            ctx.add_sequential_cost(outcome.cost);
            if let Ok(output) = outcome.result {
                if (self.accept)(input, &output) {
                    return Verdict::accepted(output, 1, i);
                }
            }
        }
        Verdict::rejected(RejectionReason::AcceptanceFailed)
    }
}

/// Ammann–Knight N-copy programming: the same program runs on N
/// re-expressed inputs in parallel; an implicit voter merges the decoded
/// outputs. Each copy is one variant of a [`ParallelEvaluation`].
pub struct NCopy<I, O> {
    program: Arc<dyn Variant<I, O>>,
    pattern: ParallelEvaluation<I, O>,
}

impl<I, O> NCopy<I, O>
where
    I: Send + Sync + 'static,
    O: Clone + PartialEq + Send + Sync + 'static,
{
    /// Creates an N-copy structure with majority voting; the identity
    /// re-expression is always included.
    #[must_use]
    pub fn new(program: impl Variant<I, O> + 'static) -> Self
    where
        I: Clone,
    {
        let program: Arc<dyn Variant<I, O>> = Arc::new(program);
        let pattern = ParallelEvaluation::new(MajorityVoter::new()).with_variant(
            reexpressed_variant(Arc::clone(&program), ReExpression::identity()),
        );
        Self { program, pattern }
    }

    /// Adds a re-expression (one more copy).
    #[must_use]
    pub fn with_reexpression(mut self, re: ReExpression<I, O>) -> Self {
        self.pattern
            .push_variant(reexpressed_variant(Arc::clone(&self.program), re));
        self
    }

    /// Sets the decision policy. Under [`DecisionPolicy::Eager`] the vote
    /// concludes as soon as a quorum of decoded outputs is mathematically
    /// fixed: remaining copies are skipped and never forked, so their cost
    /// is saved. The disposition and accepted output always match
    /// `Exhaustive`.
    #[must_use]
    pub fn with_policy(mut self, policy: DecisionPolicy) -> Self {
        self.pattern = self.pattern.with_policy(policy);
        self
    }

    /// The decision policy in effect.
    #[must_use]
    pub fn policy(&self) -> DecisionPolicy {
        self.pattern.policy()
    }

    /// Number of copies.
    #[must_use]
    pub fn copies(&self) -> usize {
        self.pattern.len()
    }

    /// Runs all copies and votes.
    pub fn run(&self, input: &I, ctx: &mut ExecContext) -> Verdict<O> {
        run_technique_span(
            ctx,
            "n-copy",
            |ctx| self.pattern.run(input, ctx),
            |report| verdict_status(&report.verdict),
        )
        .verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redundancy_faults::{FaultSpec, FaultyVariant};

    /// A linear program (f(x) = 2x + 6) with a Bohrbug on ~30% of inputs.
    /// Linearity gives exact re-expressions: f(x) = f(x + k) - 2k.
    fn buggy_linear(density: f64) -> FaultyVariant<i64, i64> {
        FaultyVariant::builder("linear", 10, |x: &i64| 2 * x + 6)
            .corruptor(|correct, _| correct + 1000)
            .fault(FaultSpec::bohrbug("input-bug", density, 99))
            .build()
    }

    fn shift(k: i64) -> ReExpression<i64, i64> {
        ReExpression::new(
            format!("shift{k}"),
            move |x: &i64| x + k,
            move |y: i64| y - 2 * k,
        )
    }

    #[test]
    fn reexpression_is_exact_on_correct_program() {
        let re = shift(5);
        let f = |x: i64| 2 * x + 6;
        for x in -20..20 {
            assert_eq!(re.decode(f(re.encode(&x))), f(x));
        }
    }

    #[test]
    fn retry_block_escapes_input_dependent_failures() {
        let program = buggy_linear(0.3);
        // Oracle acceptance for the test: we know the correct answer.
        let rb = RetryBlock::new(program, |x: &i64, out: &i64| *out == 2 * x + 6)
            .with_reexpression(shift(1))
            .with_reexpression(shift(2))
            .with_reexpression(shift(3));
        let mut ctx = ExecContext::new(0);
        let recovered = (0..500i64)
            .filter(|x| rb.run(x, &mut ctx).is_accepted())
            .count();
        // Residual failure ≈ 0.3^4 ≈ 0.8%: expect ≥ 480 of 500.
        assert!(recovered >= 480, "recovered only {recovered}/500");
        assert_eq!(rb.reexpressions(), 4);
    }

    #[test]
    fn retry_block_rejects_when_all_reexpressions_fail() {
        let program = buggy_linear(1.0); // fails everywhere
        let rb = RetryBlock::new(program, |x: &i64, out: &i64| *out == 2 * x + 6)
            .with_reexpression(shift(1));
        let mut ctx = ExecContext::new(0);
        assert!(!rb.run(&7, &mut ctx).is_accepted());
    }

    #[test]
    fn ncopy_outvotes_minority_failing_copy() {
        let program = buggy_linear(0.25);
        let nc = NCopy::new(program)
            .with_reexpression(shift(11))
            .with_reexpression(shift(23));
        assert_eq!(nc.copies(), 3);
        let mut ctx = ExecContext::new(1);
        let ok = (0..500i64)
            .filter(|x| nc.run(x, &mut ctx).into_output() == Some(2 * x + 6))
            .count();
        // Majority of 3 copies at p=0.25 ≈ 1 - (3·0.25²·0.75 + 0.25³) ≈ 0.84.
        // (Yes: N-copy is weaker than retry at equal redundancy — the vote
        // needs two agreeing copies while retry needs just one survivor.)
        assert!(ok >= 380, "only {ok}/500 correct");
    }

    #[test]
    fn ncopy_without_diversity_inherits_program_failures() {
        let program = buggy_linear(0.25);
        let nc = NCopy::new(program); // single copy, identity only
        let mut ctx = ExecContext::new(2);
        let ok = (0..400i64)
            .filter(|x| nc.run(x, &mut ctx).into_output() == Some(2 * x + 6))
            .count();
        let rate = ok as f64 / 400.0;
        assert!((rate - 0.75).abs() < 0.07, "rate {rate}");
    }

    #[test]
    fn eager_ncopy_matches_exhaustive_disposition_at_lower_cost() {
        let mk = |policy| {
            NCopy::new(buggy_linear(0.25))
                .with_reexpression(shift(11))
                .with_reexpression(shift(23))
                .with_policy(policy)
        };
        let exhaustive = mk(DecisionPolicy::Exhaustive);
        let eager = mk(DecisionPolicy::Eager);
        assert_eq!(eager.policy(), DecisionPolicy::Eager);
        let mut c1 = ExecContext::new(1);
        let mut c2 = ExecContext::new(1);
        for x in 0..300i64 {
            let a = exhaustive.run(&x, &mut c1);
            let b = eager.run(&x, &mut c2);
            assert_eq!(a.is_accepted(), b.is_accepted(), "x={x}");
            assert_eq!(a.output(), b.output(), "x={x}");
        }
        // Majority of 3 usually fixes after 2 agreeing copies: the third
        // copy is skipped and its work saved.
        assert!(
            c2.cost().work_units < c1.cost().work_units,
            "eager {} vs exhaustive {}",
            c2.cost().work_units,
            c1.cost().work_units
        );
    }

    #[test]
    fn retry_cost_is_paid_only_on_failure() {
        let program = buggy_linear(0.0); // no fault
        let rb = RetryBlock::new(program, |x: &i64, out: &i64| *out == 2 * x + 6)
            .with_reexpression(shift(1));
        let mut ctx = ExecContext::new(0);
        let verdict = rb.run(&5, &mut ctx);
        assert!(verdict.is_accepted());
        assert_eq!(ctx.cost().invocations, 1);
    }

    #[test]
    fn entry_matches_table2() {
        assert_eq!(ENTRY.classification.redundancy, RedundancyType::Data);
        assert_eq!(
            ENTRY.classification.adjudication,
            Adjudication::ReactiveMixed
        );
        assert_eq!(ENTRY.classification.faults, FaultSet::DEVELOPMENT);
        assert_eq!(ENTRY.name, "Data diversity");
        assert_eq!(ENTRY.patterns.len(), 2);
    }
}
