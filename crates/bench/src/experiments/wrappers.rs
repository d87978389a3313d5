//! Experiment E15 — Fetzer-style healer wrappers: heap-smash prevention
//! rate and the padding alternative, against the unwrapped baseline.
//!
//! Expected shape: the unchecked heap silently corrupts on every
//! overflowing write; the boundary-checking wrapper stops every one;
//! allocation padding (the RX-style *environmental* mitigation) absorbs
//! only overflows smaller than the pad.

use redundancy_core::rng::SplitMix64;
use redundancy_sandbox::memory::SimMemory;
use redundancy_sim::parallel_tasks;
use redundancy_sim::table::Table;
use redundancy_techniques::wrappers::HeapWrapper;

use crate::fmt_rate;

/// Outcome of one campaign of overflowing writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmashStats {
    /// Writes that left corrupted memory behind.
    pub corruptions: usize,
    /// Writes refused by a checking layer.
    pub refused: usize,
}

fn overflow_campaign(
    rng: &mut SplitMix64,
    trials: usize,
    mut write: impl FnMut(u64) -> (bool, bool),
) -> SmashStats {
    let mut stats = SmashStats {
        corruptions: 0,
        refused: 0,
    };
    for _ in 0..trials {
        // Overflow length 1..=128 past a 64-byte buffer.
        let overflow = 1 + rng.range_u64(0, 128);
        let (corrupted, refused) = write(overflow);
        if corrupted {
            stats.corruptions += 1;
        }
        if refused {
            stats.refused += 1;
        }
    }
    stats
}

/// Unchecked writes on a raw heap.
#[must_use]
pub fn unprotected(trials: usize, seed: u64) -> SmashStats {
    let mut rng = SplitMix64::new(seed);
    overflow_campaign(&mut rng, trials, |overflow| {
        let mut mem = SimMemory::new(0x1000, 0x10000);
        let a = mem.alloc(64).expect("fits");
        let _b = mem.alloc(64).expect("fits");
        let _ = mem.write_unchecked(a, 0, 64 + overflow);
        (!mem.audit().is_empty(), false)
    })
}

/// Writes through the boundary-checking wrapper.
#[must_use]
pub fn wrapped(trials: usize, seed: u64) -> SmashStats {
    let mut rng = SplitMix64::new(seed);
    overflow_campaign(&mut rng, trials, |overflow| {
        let mut heap = HeapWrapper::new(SimMemory::new(0x1000, 0x10000));
        let a = heap.alloc(64).expect("fits");
        let _b = heap.alloc(64).expect("fits");
        let refused = heap.write(a, 0, 64 + overflow).is_err();
        (!heap.memory().audit().is_empty(), refused)
    })
}

/// Unchecked writes on a heap with `pad` bytes of allocation padding.
#[must_use]
pub fn padded(pad: u64, trials: usize, seed: u64) -> SmashStats {
    let mut rng = SplitMix64::new(seed);
    overflow_campaign(&mut rng, trials, |overflow| {
        let mut mem = SimMemory::new(0x1000, 0x10000);
        mem.set_alloc_padding(pad);
        let a = mem.alloc(64).expect("fits");
        let _b = mem.alloc(64).expect("fits");
        let _ = mem.write_unchecked(a, 0, 64 + overflow);
        (!mem.audit().is_empty(), false)
    })
}

/// Builds the E15 table, with the four configurations sharded across up to
/// `jobs` worker threads; every campaign seeds its own RNG and heap, so the
/// table is identical for any `jobs`.
#[must_use]
pub fn run(trials: usize, seed: u64, jobs: usize) -> Table {
    let mut table = Table::new(&["configuration", "corruption rate", "writes refused"]);
    let labels = [
        "unchecked heap",
        "healer wrapper (bounds check)",
        "64-byte padding, unchecked",
        "256-byte padding, unchecked",
    ];
    let tasks: Vec<_> = (0..labels.len())
        .map(|idx| {
            move || match idx {
                0 => unprotected(trials, seed),
                1 => wrapped(trials, seed),
                2 => padded(64, trials, seed),
                _ => padded(256, trials, seed),
            }
        })
        .collect();
    let results = parallel_tasks(jobs, tasks);
    for (label, stats) in labels.iter().zip(results) {
        table.row_owned(vec![
            (*label).to_owned(),
            fmt_rate(stats.corruptions as f64 / trials as f64),
            fmt_rate(stats.refused as f64 / trials as f64),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: usize = 500;
    const SEED: u64 = 0xe15;

    #[test]
    fn unchecked_heap_always_corrupts() {
        let stats = unprotected(T, SEED);
        assert_eq!(stats.corruptions, T);
    }

    #[test]
    fn wrapper_prevents_every_smash() {
        let stats = wrapped(T, SEED);
        assert_eq!(stats.corruptions, 0);
        assert_eq!(stats.refused, T);
    }

    #[test]
    fn padding_absorbs_only_small_overflows() {
        let p64 = padded(64, T, SEED);
        let p256 = padded(256, T, SEED);
        // Overflows are 1..=128: 64-byte pads absorb about half, 256-byte
        // pads absorb all.
        let rate64 = p64.corruptions as f64 / T as f64;
        assert!((rate64 - 0.5).abs() < 0.08, "rate64 {rate64}");
        assert_eq!(p256.corruptions, 0);
    }

    #[test]
    fn table_renders_four_rows() {
        assert_eq!(run(100, SEED, 1).len(), 4);
    }

    #[test]
    fn table_is_identical_for_any_job_count() {
        crate::assert_jobs_invariant!(|jobs| run(100, SEED, jobs));
    }
}
