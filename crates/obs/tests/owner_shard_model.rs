//! The worker arena's owner-thread shard against a reference model.
//!
//! A trial's events are recorded lock-free by the thread that owns the
//! arena; records from any other thread wait in a locked side buffer
//! until the owner splices them in before its next record. Random
//! scripts drive one arena through owner records, foreign records from
//! 1–3 scoped threads (joined before the owner goes on, or running
//! alongside it), takes (submitting the arena to a merger) and nested
//! arenas. Every case checks that:
//!
//! - every event is delivered exactly once;
//! - the owner's events keep their order, and so do each foreign
//!   thread's;
//! - a foreign record that happens before an owner record (its thread
//!   was joined first) lands before it;
//! - each delivered event's `seq` is its position in its take.
//!
//! Events are `Custom` points whose `clock` is a unique tag naming the
//! step, the source (0 for the owner, 1–3 for foreign threads) and the
//! record's index within that source.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use redundancy_obs::{
    with_worker_arena, CollectorObserver, Event, ObsHandle, Point, StreamingMerger, WorkerArena,
};

/// One script step.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// The owner records `n` events.
    Owner { n: u64 },
    /// `threads` foreign threads record `each` events; joined before the
    /// next step, so all of them happen before later owner records.
    Foreign { threads: u64, each: u64 },
    /// Like `Foreign`, while the owner records `n` events alongside.
    Concurrent { threads: u64, each: u64, n: u64 },
    /// The arena is submitted as the next trial.
    Take,
    /// A nested arena records `n` events (the owner records one in the
    /// middle) and is submitted to a merger of its own.
    Nested { n: u64 },
}

fn step((kind, a, b): (u8, u64, u64)) -> Step {
    match kind {
        0 => Step::Owner { n: a + b },
        1 => Step::Foreign {
            threads: a,
            each: b,
        },
        2 => Step::Concurrent {
            threads: a,
            each: b,
            n: b,
        },
        3 => Step::Take,
        _ => Step::Nested { n: b },
    }
}

/// A record's tag: step, source and index within the source.
fn tag(step: usize, source: u64, i: u64) -> u64 {
    ((step as u64) << 40) | (source << 32) | i
}

fn untag(tag: u64) -> (usize, u64, u64) {
    ((tag >> 40) as usize, (tag >> 32) & 0xff, tag & 0xffff_ffff)
}

fn record(handle: &ObsHandle, tag: u64) {
    handle.emit(tag, || Point::Custom {
        name: "model",
        detail: "".into(),
    });
}

/// A merger whose tap keeps every take's shard-local events, in order.
fn tapped() -> (StreamingMerger, Arc<Mutex<Vec<Vec<Event>>>>) {
    let takes = Arc::new(Mutex::new(Vec::new()));
    let merger = {
        let takes = Arc::clone(&takes);
        StreamingMerger::new(Arc::new(CollectorObserver::new()))
            .with_tap(move |_, events| takes.lock().unwrap().push(events.to_vec()))
    };
    (merger, takes)
}

/// Spawns `threads` scoped threads recording `each` events apiece
/// through clones of `handle`.
fn spawn_foreign<'scope>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    handle: &ObsHandle,
    step: usize,
    threads: u64,
    each: u64,
) {
    for source in 1..=threads {
        let handle = handle.clone();
        scope.spawn(move || {
            for i in 0..each {
                record(&handle, tag(step, source, i));
            }
        });
    }
}

/// Runs `script` on this thread's arena; returns the recorded tags and
/// each take's events. Nested arenas are checked on the spot.
fn run(script: &[Step]) -> Result<(Vec<u64>, Vec<Vec<Event>>), TestCaseError> {
    let (merger, takes) = tapped();
    let mut recorded = Vec::new();
    let mut trials = 0;
    let owner = |handle: &ObsHandle, step: usize, i: u64, recorded: &mut Vec<u64>| {
        record(handle, tag(step, 0, i));
        recorded.push(tag(step, 0, i));
    };
    with_worker_arena(|arena: &mut WorkerArena| {
        let handle = arena.handle();
        for (s, &step) in script.iter().enumerate() {
            match step {
                Step::Owner { n } => (0..n).for_each(|i| owner(&handle, s, i, &mut recorded)),
                Step::Foreign { threads, each } => {
                    std::thread::scope(|scope| spawn_foreign(scope, &handle, s, threads, each));
                    for source in 1..=threads {
                        recorded.extend((0..each).map(|i| tag(s, source, i)));
                    }
                }
                Step::Concurrent { threads, each, n } => {
                    std::thread::scope(|scope| {
                        spawn_foreign(scope, &handle, s, threads, each);
                        (0..n).for_each(|i| owner(&handle, s, i, &mut recorded));
                    });
                    for source in 1..=threads {
                        recorded.extend((0..each).map(|i| tag(s, source, i)));
                    }
                }
                Step::Take => {
                    arena.submit(&merger, trials);
                    trials += 1;
                }
                Step::Nested { n } => {
                    let (nested_merger, nested_takes) = tapped();
                    with_worker_arena(|nested| {
                        let inner = nested.handle();
                        for i in 0..n {
                            record(&inner, tag(s, 1, i));
                            if i == n / 2 {
                                owner(&handle, s, 0, &mut recorded);
                            }
                        }
                        nested.submit(&nested_merger, 0);
                    });
                    let nested_takes = nested_takes.lock().unwrap();
                    let clocks: Vec<u64> = nested_takes[0].iter().map(|e| e.clock).collect();
                    prop_assert_eq!(clocks, (0..n).map(|i| tag(s, 1, i)).collect::<Vec<_>>());
                    let seqs: Vec<u64> = nested_takes[0].iter().map(|e| e.seq).collect();
                    prop_assert_eq!(seqs, (0..n).collect::<Vec<_>>());
                }
            }
        }
        arena.submit(&merger, trials);
        Ok(())
    })?;
    let takes = takes.lock().unwrap().clone();
    Ok((recorded, takes))
}

proptest! {
    #[test]
    fn owner_shard_matches_its_model(
        script in proptest::collection::vec((0u8..5, 1u64..4, 1u64..5), 1..24)
            .prop_map(|steps| steps.into_iter().map(step).collect::<Vec<_>>()),
    ) {
        let (recorded, takes) = run(&script)?;
        for take in &takes {
            let seqs: Vec<u64> = take.iter().map(|e| e.seq).collect();
            prop_assert_eq!(seqs, (0..take.len() as u64).collect::<Vec<_>>(), "seq is position");
        }
        let delivered: Vec<u64> = takes.iter().flatten().map(|e| e.clock).collect();

        let mut sorted = delivered.clone();
        sorted.sort_unstable();
        let mut expected = recorded.clone();
        expected.sort_unstable();
        prop_assert_eq!(sorted, expected, "every event delivered exactly once");

        // Per-source order: the owner's tags, and each foreign thread's
        // within its step, increase in delivery order.
        let owner: Vec<u64> = delivered.iter().copied().filter(|&t| untag(t).1 == 0).collect();
        prop_assert!(owner.windows(2).all(|w| w[0] < w[1]), "owner order: {:?}", owner);
        for window in delivered.windows(2) {
            let (a, b) = (untag(window[0]), untag(window[1]));
            if a.1 != 0 && (a.0, a.1) == (b.0, b.1) {
                prop_assert!(a.2 < b.2, "foreign order: {:?} then {:?}", a, b);
            }
        }
        // Happens-before: foreign threads of step s were joined before
        // any owner record of a later step.
        for (position, &t) in delivered.iter().enumerate() {
            let (s, source, _) = untag(t);
            if source == 0 {
                continue;
            }
            if let Some(&o) = delivered[..position].iter().find(|&&o| {
                let (os, osource, _) = untag(o);
                osource == 0 && os > s
            }) {
                return Err(TestCaseError::fail(format!(
                    "foreign {:?} landed after the later owner record {:?}",
                    untag(t),
                    untag(o)
                )));
            }
        }
    }
}
