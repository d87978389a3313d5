//! Pinned reference outputs.
//!
//! `references.tsv` holds, for every pinned base seed, the fingerprint
//! of each call seed in its seed set. A run on a pinned base seed checks
//! every call against these lines; on any other seed it falls back to
//! references computed on another path than the timed one
//! ([`crate::workload::reference`]), so a claim can be re-checked on a
//! held-out seed.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::workload::{reference, seed_set, Fingerprint, Kind, SEED_SET};

/// Base seeds whose references are pinned.
pub const PINNED_BASES: std::ops::RangeInclusive<u64> = 0..=20;

/// The reference table key of `kind` at `items` per call: outputs
/// depend on the call size, and the sharded workload's also on its
/// shard count.
#[must_use]
pub fn key(kind: Kind, items: usize) -> String {
    match kind {
        Kind::SvcFailover => format!("{}@shards={}@items={items}", kind.name(), kind.shards()),
        _ => format!("{}@items={items}", kind.name()),
    }
}

/// Renders a fingerprint as `key=value;key=value`.
#[must_use]
pub fn render(fingerprint: &Fingerprint) -> String {
    fingerprint
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(";")
}

fn parse_fingerprint(text: &str) -> Option<Fingerprint> {
    text.split(';')
        .map(|pair| {
            let (k, v) = pair.split_once('=')?;
            Some((k.to_owned(), v.to_owned()))
        })
        .collect()
}

/// The pinned table: `(key, base seed)` → one fingerprint per call seed.
#[derive(Debug, Default, Clone)]
pub struct Pinned(HashMap<(String, u64), Vec<Fingerprint>>);

impl Pinned {
    /// Parses `references.tsv` text.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut table: HashMap<(String, u64), Vec<Fingerprint>> = HashMap::new();
        for (n, line) in text.lines().enumerate() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let bad = || format!("references line {}: malformed: {line:?}", n + 1);
            let cols: Vec<&str> = line.split('\t').collect();
            let [key, base, index, fields] = cols[..] else {
                return Err(bad());
            };
            let base: u64 = base.parse().map_err(|_| bad())?;
            let index: usize = index.parse().map_err(|_| bad())?;
            let fingerprint = parse_fingerprint(fields).ok_or_else(bad)?;
            let entry = table.entry((key.to_owned(), base)).or_default();
            if entry.len() != index {
                return Err(bad());
            }
            entry.push(fingerprint);
        }
        if let Some(((key, base), _)) = table.iter().find(|(_, v)| v.len() != SEED_SET) {
            return Err(format!(
                "references for {key} seed {base} do not cover the seed set"
            ));
        }
        Ok(Pinned(table))
    }

    /// Loads `path`; a missing file is an empty table.
    ///
    /// # Errors
    ///
    /// Returns a message when the file exists but cannot be read or parsed.
    pub fn load(path: &Path) -> Result<Self, String> {
        match std::fs::read_to_string(path) {
            Ok(text) => Self::parse(&text),
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => Ok(Pinned::default()),
            Err(err) => Err(format!("cannot read {}: {err}", path.display())),
        }
    }

    /// The pinned fingerprints of `base`'s seed set, if pinned.
    #[must_use]
    pub fn get(&self, key: &str, base: u64) -> Option<&Vec<Fingerprint>> {
        self.0.get(&(key.to_owned(), base))
    }

    /// Replaces one pinned fingerprint (the self-tests corrupt one).
    pub fn set(&mut self, key: &str, base: u64, index: usize, fingerprint: Fingerprint) {
        let entry = self
            .0
            .entry((key.to_owned(), base))
            .or_insert_with(|| vec![Vec::new(); SEED_SET]);
        entry[index] = fingerprint;
    }
}

/// Computes the references of `kind` for `base`'s seed set and appends
/// them to `out` as `references.tsv` lines.
pub fn compute(out: &mut String, kind: Kind, base: u64) {
    let items = kind.items_per_call();
    for (index, seed) in seed_set(base).into_iter().enumerate() {
        let fingerprint = reference(kind, seed, items).fingerprint();
        let _ = writeln!(
            out,
            "{}\t{base}\t{index}\t{}",
            key(kind, items),
            render(&fingerprint)
        );
    }
}

/// Computes the references of every workload for every pinned base seed
/// and renders the `references.tsv` text.
#[must_use]
pub fn regenerate() -> String {
    let mut out = String::from(
        "# Pinned reference outputs of the benchmark workloads, one line per call seed.\n\
         # Regenerate with: python3 perfbench/run.py --regen-refs\n\
         # workload<TAB>base seed<TAB>index in the seed set<TAB>fingerprint\n",
    );
    for kind in Kind::ALL {
        for base in PINNED_BASES {
            compute(&mut out, kind, base);
        }
    }
    out
}
