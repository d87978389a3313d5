//! The streaming merger under random schedules.
//!
//! Submitter threads claim chunks of trial indices from a shared cursor
//! in ascending order and submit each trial after a random delay — the
//! shape the campaign engine's worker pool gives the merger. Cases cover
//! window sizes 1–8, 1–4 submitters, random chunk sizes and delays, and
//! an optional abort (a submitter that "panics" instead of submitting).
//! Every case checks that:
//!
//! - the sink sees exactly [`merge_shards`] of the forwarded trials
//!   (all of them without an abort, a prefix ending before the aborted
//!   trial with one);
//! - `peak_buffered() <= window`;
//! - every submitter returns. Submitters report through a channel read
//!   with a timeout, so a lost wakeup fails the case instead of hanging
//!   the test binary.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use redundancy_obs::{
    merge_shards, CollectorObserver, CostSnapshot, Event, SpanKind, SpanStatus, StreamingMerger,
    Trace,
};

/// How long a case waits for its submitters before calling one lost.
const JOIN_TIMEOUT: Duration = Duration::from_secs(5);

/// Trial `index`'s shard: a trial span around `inner` nested spans,
/// recorded on a trace of its own (span ids start at 1 per shard).
fn shard(index: u64, inner: u64) -> Vec<Event> {
    let mut trace = Trace::new();
    let trial = trace.begin_span(0, || SpanKind::Trial { index, seed: index });
    for _ in 0..inner {
        let span = trace.begin_span(1, || SpanKind::Scope { name: "work" });
        trace.end_span(span, 2, SpanStatus::Ok, CostSnapshot::ZERO);
    }
    trace.end_span(
        trial,
        3,
        SpanStatus::Trial {
            disposition: "correct",
        },
        CostSnapshot::ZERO,
    );
    let mut events = Vec::new();
    trace.hand_off(|buffered| events.append(buffered));
    events
}

/// One splitmix64 step: per-trial delays derived from the case seed.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Stalls a submitter before trial `i`: mostly a few yields, sometimes
/// a sleep long enough for the others to run ahead into the window.
fn delay(seed: u64, i: usize) {
    let r = mix(seed ^ i as u64);
    if r.is_multiple_of(8) {
        std::thread::sleep(Duration::from_micros(100));
    } else {
        for _ in 0..r % 16 {
            std::thread::yield_now();
        }
    }
}

proptest! {
    #[test]
    fn streaming_merge_equals_batch_merge_under_random_schedules(
        window in 1usize..9,
        submitters in 1usize..5,
        trials in 1usize..48,
        chunk in 1usize..5,
        seed in any::<u64>(),
        abort_at in proptest::option::of(0usize..48),
    ) {
        let shards: Arc<Vec<Vec<Event>>> =
            Arc::new((0..trials as u64).map(|i| shard(i, mix(seed ^ i) % 3)).collect());
        let sink = Arc::new(CollectorObserver::new());
        let merger = Arc::new(StreamingMerger::new(sink.clone()).with_window(window));
        let cursor = Arc::new(AtomicUsize::new(0));
        let (done, returned) = mpsc::channel();
        let mut handles = Vec::new();
        for _ in 0..submitters {
            let (shards, merger, cursor, done) =
                (shards.clone(), merger.clone(), cursor.clone(), done.clone());
            handles.push(std::thread::spawn(move || {
                'claim: loop {
                    let start = cursor.fetch_add(1, Ordering::Relaxed) * chunk;
                    if start >= trials {
                        break;
                    }
                    for i in start..(start + chunk).min(trials) {
                        delay(seed, i);
                        if abort_at == Some(i) {
                            // What the engine does for a panicking trial.
                            merger.abort();
                            break 'claim;
                        }
                        merger.submit(i, &mut shards[i].clone(), &[shards[i].len()]);
                    }
                }
                let _ = done.send(());
            }));
        }
        // Wait on the channel, not the handles: joining a submitter that
        // lost its wakeup would hang. A panicked submitter never sends,
        // but dropping the last sender ends the wait, and joining below
        // reports the panic.
        drop(done);
        for waited in 0..submitters {
            prop_assert!(
                !matches!(returned.recv_timeout(JOIN_TIMEOUT), Err(RecvTimeoutError::Timeout)),
                "{} of {submitters} submitters still blocked after {JOIN_TIMEOUT:?}: lost wakeup",
                submitters - waited
            );
        }
        for handle in handles {
            prop_assert!(handle.join().is_ok(), "a submitter panicked");
        }

        let forwarded = merger.forwarded();
        match abort_at.filter(|&i| i < trials) {
            Some(i) => prop_assert!(forwarded <= i, "forwarded {forwarded} past aborted trial {i}"),
            None => prop_assert_eq!(forwarded, trials),
        }
        prop_assert_eq!(sink.take(), merge_shards(shards[..forwarded].to_vec()));
        prop_assert!(
            merger.peak_buffered() <= window,
            "peak {} > window {window}",
            merger.peak_buffered()
        );
    }
}
