//! The delivery contract between a traced execution context and the
//! observer attached to it with `ExecContext::with_observer`: the
//! observer receives each technique run as one `record_batch` once the
//! run has finished, never a single event through `record`, and nothing
//! of a run that a panic unwinds through.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use redundancy_core::adjudicator::acceptance::FnAcceptance;
use redundancy_core::context::ExecContext;
use redundancy_core::obs::{Event, EventKind, Observer, SpanKind};
use redundancy_core::variant::pure_variant;
use redundancy_techniques::nvp::NVersion;
use redundancy_techniques::recovery_blocks::RecoveryBlocks;

/// Technique runs per case, one input each, on one context.
const RUNS: u64 = 5;

/// Keeps what an observer is handed: single events are only counted.
#[derive(Default)]
struct Counting {
    records: AtomicUsize,
    batches: Mutex<Vec<Vec<Event>>>,
}

impl Counting {
    fn batches(&self) -> usize {
        self.batches.lock().unwrap().len()
    }

    fn records(&self) -> usize {
        self.records.load(Ordering::Relaxed)
    }
}

impl Observer for Counting {
    fn record(&self, _event: Event) {
        self.records.fetch_add(1, Ordering::Relaxed);
    }

    fn record_batch(&self, events: &[Event]) {
        self.batches.lock().unwrap().push(events.to_vec());
    }
}

#[test]
fn each_technique_run_is_one_batch_delivered_when_it_ends() {
    let counting = Arc::new(Counting::default());
    // The first version reads the observer's batch count mid-run, while
    // the run's technique span is open.
    let seen = Arc::new(Mutex::new(Vec::new()));
    let reader = {
        let (counting, seen) = (Arc::clone(&counting), Arc::clone(&seen));
        pure_variant("reader", 1, move |x: &u64| {
            seen.lock().unwrap().push(counting.batches());
            x * 2
        })
    };
    let nvp = NVersion::new(vec![
        reader,
        pure_variant("b", 1, |x: &u64| x * 2),
        pure_variant("c", 1, |x: &u64| x + 1),
    ]);
    let mut ctx = ExecContext::new(1).with_observer(counting.clone());
    for x in 0..RUNS {
        assert_eq!(nvp.run(&x, &mut ctx).into_output(), Some(2 * x));
    }

    assert_eq!(counting.records(), 0, "no event arrives on its own");
    let batches = counting.batches.lock().unwrap();
    assert_eq!(batches.len(), RUNS as usize, "one batch per technique run");
    for batch in batches.iter() {
        // A whole technique span: it opens the batch, and its end
        // closes it.
        let (first, last) = (batch[0], batch[batch.len() - 1]);
        assert!(
            matches!(
                first.kind,
                EventKind::SpanStart {
                    kind: SpanKind::Technique { .. }
                }
            ),
            "{first:?}"
        );
        assert!(matches!(last.kind, EventKind::SpanEnd { .. }), "{last:?}");
        assert_eq!(last.span, first.span);
    }
    // Mid-run, the observer held only the earlier runs' batches.
    assert_eq!(
        *seen.lock().unwrap(),
        (0..RUNS as usize).collect::<Vec<_>>()
    );
}

#[test]
fn a_run_a_panic_unwinds_through_is_never_delivered() {
    let counting = Arc::new(Counting::default());
    let rb = RecoveryBlocks::new(FnAcceptance::new("buggy", |x: &u64, _: &u64| {
        assert_ne!(*x, 3, "acceptance test bug");
        true
    }))
    .with_alternate(pure_variant("primary", 1, |x: &u64| x * 2));
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        // The context lives inside the closure, so the panic drops it
        // with the unit it has open.
        let mut ctx = ExecContext::new(2).with_observer(counting.clone());
        for x in 0..RUNS {
            let _ = rb.run(&x, &mut ctx);
        }
    }));

    assert!(unwound.is_err(), "the acceptance test panics on input 3");
    assert_eq!(counting.batches(), 3, "runs 0-2 delivered, run 3 dropped");
    assert_eq!(counting.records(), 0);
}
