//! Harness-level checkpoint/recovery for Monte-Carlo campaigns.
//!
//! The paper's checkpoint-recovery row (Table 2) is *simulated* by the
//! technique layer; this module dogfoods the same idea into the campaign
//! engine itself, following the crash-only recipe: a campaign
//! periodically commits its completed-trial outcomes (and, for traced
//! runs, the merged event-stream prefix) to an append-only JSONL file,
//! and [`Campaign::execute`] with a [`RunSpec::checkpoint`] skips the
//! committed prefix on restart. Because trials are independently seeded by index and
//! costs round-trip bit-exactly (`u64` fields as decimal, `design_cost`
//! via [`f64::to_bits`]), a killed-and-resumed campaign produces a
//! **bit-identical [`TrialSummary`]** — and a byte-identical traced
//! stream — versus an uninterrupted run.
//!
//! ## File format
//!
//! One JSON object per line, append-only:
//!
//! - a header (`{"kind":"header",...}`) pinning schema version,
//!   campaign seed, trial count and whether the run is traced — resuming
//!   with different parameters is refused ([`Error::Mismatch`]);
//! - for traced runs, raw event lines (exactly
//!   [`event_to_json`](redundancy_core::obs::event_to_json) output) carrying trial `i`'s
//!   slice of the merged stream, renumbered into campaign-wide span ids;
//! - an outcome line (`{"kind":"trial",...}`) per committed trial, in
//!   index order, closing that trial's group.
//!
//! ## Commit discipline
//!
//! Each completed trial is serialized once: straight into a reused
//! commit buffer when it extends the contiguous frontier, or parked when
//! it completes ahead of it (a later chunk at `jobs > 1`, or a traced
//! trial whose run the merge has not tapped yet). A parked outcome keeps
//! its value, with no allocation, and is serialized when the frontier
//! reaches it; parked event lines are serialized at once. The frontier
//! advances in O(1) amortized time per trial. Whole trials are flushed
//! to the file in contiguous batches of [`CheckpointSpec::interval`]
//! trials, one `write` per batch. Nothing is flushed on drop: if the
//! process (or an injected chaos panic, see [`crate::chaos`]) kills the
//! campaign, the un-flushed tail is deliberately lost — that is exactly
//! the checkpoint-interval/work-lost trade-off experiment E19 measures.
//! A crash can also tear the final batch mid-line; the loader keeps the
//! longest valid prefix ending in an outcome line and truncates the rest
//! before appending.
//!
//! [`Campaign::execute`]: crate::trial::Campaign::execute
//! [`RunSpec::checkpoint`]: crate::trial::RunSpec::checkpoint
//! [`TrialSummary`]: crate::trial::TrialSummary

use std::collections::VecDeque;
use std::fmt;
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use redundancy_core::cost::Cost;
use redundancy_core::obs::telemetry::{self, Counter, Timer};
use redundancy_core::obs::{event_from_json, write_event_json, Event, EventKind};

use crate::trial::TrialOutcome;

/// Schema version written into (and required of) the header line.
const VERSION: u64 = 1;

/// Where and how often a resumable campaign checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointSpec {
    path: PathBuf,
    interval: usize,
}

impl CheckpointSpec {
    /// Checkpoints to `path` every `interval` completed trials
    /// (`interval` is clamped to at least 1).
    #[must_use]
    pub fn new(path: impl Into<PathBuf>, interval: usize) -> Self {
        CheckpointSpec {
            path: path.into(),
            interval: interval.max(1),
        }
    }

    /// The checkpoint file.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Trials per commit batch.
    #[must_use]
    pub fn interval(&self) -> usize {
        self.interval
    }
}

/// Why a resumable campaign could not use its checkpoint file.
#[derive(Debug)]
pub enum Error {
    /// The file could not be read, written or truncated.
    Io(std::io::Error),
    /// A committed line is structurally invalid in a way tearing cannot
    /// explain (e.g. outcome indices out of order): the file was
    /// corrupted or written by something else.
    Corrupt {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        detail: String,
    },
    /// The file belongs to a different campaign (seed, trial count,
    /// traced flag or schema version differ).
    Mismatch {
        /// Which parameter differed.
        detail: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Io(err) => write!(f, "checkpoint i/o: {err}"),
            Error::Corrupt { line, detail } => {
                write!(f, "checkpoint corrupt at line {line}: {detail}")
            }
            Error::Mismatch { detail } => {
                write!(f, "checkpoint belongs to a different campaign: {detail}")
            }
        }
    }
}

impl std::error::Error for Error {}

impl From<std::io::Error> for Error {
    fn from(err: std::io::Error) -> Self {
        Error::Io(err)
    }
}

/// What a checkpoint file contributed on open: the committed prefix a
/// resumed campaign must not re-run.
#[derive(Debug, Default)]
pub struct Resumed {
    /// Outcomes of trials `0..outcomes.len()`, in index order.
    pub outcomes: Vec<TrialOutcome>,
    /// The committed prefix of the merged event stream (traced runs;
    /// span ids campaign-wide, `seq` shard-local — sinks reassign global
    /// sequence numbers at record time).
    pub events: Vec<Event>,
    /// Span ids the replayed prefix consumed
    /// (for [`StreamingMerger::with_start`]).
    ///
    /// [`StreamingMerger::with_start`]: redundancy_core::obs::StreamingMerger::with_start
    pub span_offset: u64,
}

/// What of one trial arrived before the commit frontier reached it,
/// waiting its turn.
#[derive(Debug, Default)]
struct Parked {
    /// Event lines (traced runs), from the merger tap.
    events: Option<String>,
    /// The outcome, serialized when its line is in turn.
    outcome: Option<TrialOutcome>,
}

/// Which half of a trial's lines a record call carries.
#[derive(Clone, Copy)]
enum Half<'a> {
    Events(&'a [Event]),
    Outcome(&'a TrialOutcome),
}

#[derive(Debug)]
struct LogState {
    file: File,
    /// Trials durably flushed (a contiguous prefix `0..committed`).
    committed: usize,
    /// The next commit: whole trials `committed..frontier` in file
    /// order, then (traced runs) the frontier trial's event lines when
    /// they arrived before its outcome. Reused across commits.
    buf: String,
    /// Bytes of `buf` that hold whole trials; only these are flushed.
    whole: usize,
    /// First trial whose lines are not all in `buf`.
    frontier: usize,
    /// Whether the frontier trial's event lines are already in `buf`.
    frontier_events: bool,
    /// Lines that arrived out of turn: slot `k` belongs to trial
    /// `frontier + k`.
    parked: VecDeque<Parked>,
    /// First write failure; later records become no-ops and
    /// [`CheckpointLog::finish`] reports it.
    error: Option<std::io::Error>,
}

impl LogState {
    /// Appends the frontier trial's parked lines that are now in turn,
    /// returning whether its outcome line went in (the trial is whole).
    fn take_parked(&mut self, traced: bool) -> bool {
        let Some(slot) = self.parked.front_mut() else {
            return false;
        };
        if let Some(events) = slot.events.take() {
            self.buf.push_str(&events);
            self.frontier_events = true;
        }
        if traced && !self.frontier_events {
            return false;
        }
        match slot.outcome.take() {
            Some(outcome) => {
                write_outcome_line(&mut self.buf, self.frontier, &outcome);
                true
            }
            None => false,
        }
    }

    /// Called once the frontier trial's outcome line is in `buf`: moves
    /// the frontier past it and past every parked trial that is now
    /// whole. Each trial is visited once, so this is O(1) amortized.
    fn advance(&mut self, traced: bool) {
        loop {
            self.frontier += 1;
            self.whole = self.buf.len();
            self.frontier_events = false;
            self.parked.pop_front();
            if !self.take_parked(traced) {
                return;
            }
        }
    }

    /// Commits the whole trials in `buf` with one `write`, keeping the
    /// partial tail (early event lines of the frontier trial) for the
    /// next commit.
    fn flush(&mut self) {
        let commit_timer = telemetry::timer_start();
        let result = self
            .file
            .write_all(&self.buf.as_bytes()[..self.whole])
            .and_then(|()| self.file.flush());
        telemetry::timer_stop(Timer::CheckpointCommitNs, commit_timer);
        match result {
            Ok(()) => {
                telemetry::add(Counter::CheckpointCommits, 1);
                telemetry::add(
                    Counter::CheckpointTrialsCommitted,
                    (self.frontier - self.committed) as u64,
                );
                self.committed = self.frontier;
                self.buf.drain(..self.whole);
                self.whole = 0;
            }
            Err(err) => self.error = Some(err),
        }
    }
}

/// The committer behind a resumable campaign: serializes completed
/// trials into one reused commit buffer and flushes contiguous,
/// interval-sized batches to the checkpoint file. Shared by worker
/// threads (interior mutability); see the module docs for the commit
/// discipline.
#[derive(Debug)]
pub struct CheckpointLog {
    traced: bool,
    interval: usize,
    state: Mutex<LogState>,
}

impl CheckpointLog {
    /// Opens (or creates) the checkpoint file for this campaign,
    /// returning the committer and whatever prefix a previous run
    /// committed. A fresh file gets its header written and flushed
    /// immediately; an existing file is validated against the campaign
    /// parameters and truncated to its longest valid prefix.
    pub fn open(
        spec: &CheckpointSpec,
        campaign_seed: u64,
        trials: usize,
        traced: bool,
    ) -> Result<(CheckpointLog, Resumed), Error> {
        let existing = match std::fs::read(spec.path()) {
            Ok(bytes) => Some(bytes),
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => None,
            Err(err) => return Err(err.into()),
        };
        let (resumed, valid_bytes, write_header) = match existing {
            Some(bytes) if !bytes.is_empty() => {
                let (resumed, valid) = scan(&bytes, campaign_seed, trials, traced)?;
                // A torn header commits nothing: start the file over.
                let torn_header = valid == 0;
                (resumed, valid, torn_header)
            }
            _ => (Resumed::default(), 0, true),
        };
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(false)
            .open(spec.path())?;
        file.set_len(valid_bytes)?;
        file.seek(SeekFrom::End(0))?;
        if write_header {
            let header = format!(
                "{{\"kind\":\"header\",\"v\":{VERSION},\"campaign_seed\":{campaign_seed},\
                 \"trials\":{trials},\"traced\":{traced}}}\n"
            );
            file.write_all(header.as_bytes())?;
            file.flush()?;
        }
        let committed = resumed.outcomes.len();
        Ok((
            CheckpointLog {
                traced,
                interval: spec.interval(),
                state: Mutex::new(LogState {
                    file,
                    committed,
                    buf: String::new(),
                    whole: 0,
                    frontier: committed,
                    frontier_events: false,
                    parked: VecDeque::new(),
                    error: None,
                }),
            },
            resumed,
        ))
    }

    /// Trials durably committed so far (contiguous from 0).
    #[must_use]
    pub fn committed(&self) -> usize {
        self.state.lock().expect("checkpoint lock").committed
    }

    /// Trials per commit batch.
    pub(crate) fn interval(&self) -> usize {
        self.interval
    }

    /// Records trial `index`'s slice of the merged event stream
    /// (installed as the [`StreamingMerger`] tap by the traced runner).
    ///
    /// [`StreamingMerger`]: redundancy_core::obs::StreamingMerger
    pub fn record_events(&self, index: usize, events: &[Event]) {
        self.record(index, Half::Events(events));
    }

    /// Records trial `index`'s outcome; flushes a batch when `interval`
    /// contiguous trials beyond the committed frontier are complete.
    pub fn record_outcome(&self, index: usize, outcome: &TrialOutcome) {
        self.record(index, Half::Outcome(outcome));
    }

    /// Serializes one half of trial `index` straight into the commit
    /// buffer when it is the frontier trial's next line, and parks it
    /// otherwise. Then flushes once `interval` whole trials wait. Lines
    /// of trials already whole (a replayed prefix) are ignored.
    fn record(&self, index: usize, half: Half<'_>) {
        let mut state = self.state.lock().expect("checkpoint lock");
        if state.error.is_some() || index < state.frontier {
            return;
        }
        let in_turn = index == state.frontier
            && match half {
                Half::Events(_) => true,
                Half::Outcome(_) => !self.traced || state.frontier_events,
            };
        if in_turn {
            let whole = match half {
                Half::Outcome(outcome) => {
                    write_outcome_line(&mut state.buf, index, outcome);
                    true
                }
                Half::Events(events) => {
                    write_event_lines(&mut state.buf, events);
                    state.frontier_events = true;
                    state.take_parked(self.traced)
                }
            };
            if whole {
                state.advance(self.traced);
            }
        } else {
            let slot = index - state.frontier;
            if state.parked.len() <= slot {
                state.parked.resize_with(slot + 1, Parked::default);
            }
            let parked = &mut state.parked[slot];
            match half {
                Half::Events(events) => {
                    let mut lines = String::new();
                    write_event_lines(&mut lines, events);
                    parked.events = Some(lines);
                }
                Half::Outcome(outcome) => parked.outcome = Some(*outcome),
            }
        }
        if state.frontier - state.committed >= self.interval {
            state.flush();
        }
    }

    /// Flushes the remaining complete tail (any batch size) and reports
    /// the first write error, if one occurred. Returns the total trials
    /// committed.
    pub fn finish(&self) -> Result<usize, Error> {
        let mut state = self.state.lock().expect("checkpoint lock");
        if state.error.is_none() && state.frontier > state.committed {
            state.flush();
        }
        match state.error.take() {
            Some(err) => Err(err.into()),
            None => Ok(state.committed),
        }
    }
}

/// Appends one line per event, each exactly
/// [`event_to_json`](redundancy_core::obs::event_to_json)'s output.
fn write_event_lines(out: &mut String, events: &[Event]) {
    for event in events {
        write_event_json(event, out);
        out.push('\n');
    }
}

/// Appends trial `index`'s outcome line.
fn write_outcome_line(out: &mut String, index: usize, outcome: &TrialOutcome) {
    let cost = outcome.cost();
    let _ = writeln!(
        out,
        "{{\"kind\":\"trial\",\"index\":{index},\"disposition\":\"{}\",\
         \"work_units\":{},\"virtual_ns\":{},\"invocations\":{},\"design_cost_bits\":{}}}",
        outcome.disposition(),
        cost.work_units,
        cost.virtual_ns,
        cost.invocations,
        cost.design_cost.to_bits()
    );
}

/// Scans a checkpoint file's bytes, returning the committed prefix and
/// the byte length of the longest valid prefix ending in an outcome line
/// (0 when even the header is unusable — the caller starts the file
/// over). Header/parameter conflicts and impossible line sequences are
/// hard errors; a torn or garbled tail is silently dropped.
fn scan(
    bytes: &[u8],
    campaign_seed: u64,
    trials: usize,
    traced: bool,
) -> Result<(Resumed, u64), Error> {
    let mut resumed = Resumed::default();
    let mut staged: Vec<Event> = Vec::new();
    let mut valid_bytes = 0u64;
    let mut offset = 0usize;
    let mut line_no = 0usize;
    let mut saw_header = false;
    while offset < bytes.len() {
        let end = match bytes[offset..].iter().position(|&b| b == b'\n') {
            Some(pos) => offset + pos,
            None => break, // no newline: torn tail
        };
        line_no += 1;
        let Ok(line) = std::str::from_utf8(&bytes[offset..end]) else {
            break; // torn mid-character
        };
        if !saw_header {
            match parse_header(line) {
                Some(header) => {
                    header.check(campaign_seed, trials, traced)?;
                    saw_header = true;
                    valid_bytes = (end + 1) as u64;
                }
                // An unreadable first line means the header write itself
                // tore: nothing was committed.
                None => return Ok((Resumed::default(), 0)),
            }
        } else if line.starts_with("{\"kind\":\"trial\"") {
            let Some((index, outcome)) = parse_outcome(line) else {
                break; // torn tail
            };
            if index != resumed.outcomes.len() {
                return Err(Error::Corrupt {
                    line: line_no,
                    detail: format!(
                        "outcome index {index} where {} was expected",
                        resumed.outcomes.len()
                    ),
                });
            }
            if index >= trials {
                return Err(Error::Corrupt {
                    line: line_no,
                    detail: format!("outcome index {index} beyond campaign of {trials}"),
                });
            }
            resumed.outcomes.push(outcome);
            resumed.events.append(&mut staged);
            valid_bytes = (end + 1) as u64;
        } else {
            match event_from_json(line) {
                Ok(event) => staged.push(event),
                Err(_) => break, // torn tail
            }
        }
        offset = end + 1;
    }
    // Events staged after the last outcome line belong to an
    // uncommitted batch; the truncation at `valid_bytes` drops them.
    resumed.span_offset = resumed
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::SpanStart { .. }))
        .count() as u64;
    Ok((resumed, valid_bytes))
}

struct Header {
    version: u64,
    campaign_seed: u64,
    trials: u64,
    traced: bool,
}

impl Header {
    fn check(&self, campaign_seed: u64, trials: usize, traced: bool) -> Result<(), Error> {
        let mismatch = |detail: String| Err(Error::Mismatch { detail });
        if self.version != VERSION {
            return mismatch(format!(
                "schema v{} (this build writes v{VERSION})",
                self.version
            ));
        }
        if self.campaign_seed != campaign_seed {
            return mismatch(format!(
                "campaign seed {} (resuming with {campaign_seed})",
                self.campaign_seed
            ));
        }
        if self.trials != trials as u64 {
            return mismatch(format!("{} trials (resuming with {trials})", self.trials));
        }
        if self.traced != traced {
            return mismatch(format!(
                "traced={} (resuming with traced={traced})",
                self.traced
            ));
        }
        Ok(())
    }
}

/// Extracts `"key":<digits>` from a line this module itself wrote (keys
/// are fixed and values unescaped, so plain scanning is exact).
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let start = line.find(&needle)? + needle.len();
    let digits: &str = &line[start..];
    let end = digits
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(digits.len());
    digits[..end].parse().ok()
}

/// Extracts `"key":"<label>"` (labels are fixed identifiers, never
/// escaped).
fn field_label<'l>(line: &'l str, key: &str) -> Option<&'l str> {
    let needle = format!("\"{key}\":\"");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    Some(&rest[..rest.find('"')?])
}

fn parse_header(line: &str) -> Option<Header> {
    if !line.starts_with("{\"kind\":\"header\"") || !line.ends_with('}') {
        return None;
    }
    let traced = if line.contains("\"traced\":true") {
        true
    } else if line.contains("\"traced\":false") {
        false
    } else {
        return None;
    };
    Some(Header {
        version: field_u64(line, "v")?,
        campaign_seed: field_u64(line, "campaign_seed")?,
        trials: field_u64(line, "trials")?,
        traced,
    })
}

fn parse_outcome(line: &str) -> Option<(usize, TrialOutcome)> {
    if !line.ends_with('}') {
        return None;
    }
    let index = usize::try_from(field_u64(line, "index")?).ok()?;
    let cost = Cost {
        work_units: field_u64(line, "work_units")?,
        virtual_ns: field_u64(line, "virtual_ns")?,
        invocations: field_u64(line, "invocations")?,
        design_cost: f64::from_bits(field_u64(line, "design_cost_bits")?),
    };
    let outcome = match field_label(line, "disposition")? {
        "correct" => TrialOutcome::Correct { cost },
        "undetected" => TrialOutcome::Undetected { cost },
        "detected" => TrialOutcome::Detected { cost },
        _ => return None,
    };
    Some((index, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("redundancy_ckpt_{name}_{}", std::process::id()));
        path
    }

    fn outcome(i: usize) -> TrialOutcome {
        let cost = Cost {
            work_units: 10 + i as u64,
            virtual_ns: 100 + i as u64,
            invocations: 1,
            design_cost: 0.1 * i as f64, // exercises non-trivial f64 bits
        };
        match i % 3 {
            0 => TrialOutcome::Correct { cost },
            1 => TrialOutcome::Detected { cost },
            _ => TrialOutcome::Undetected { cost },
        }
    }

    #[test]
    fn fresh_log_commits_in_interval_batches() {
        let path = temp_path("batches");
        let _ = std::fs::remove_file(&path);
        let spec = CheckpointSpec::new(&path, 4);
        let (log, resumed) = CheckpointLog::open(&spec, 7, 10, false).unwrap();
        assert!(resumed.outcomes.is_empty());

        for i in 0..3 {
            log.record_outcome(i, &outcome(i));
        }
        assert_eq!(log.committed(), 0, "3 < interval: nothing durable yet");
        log.record_outcome(3, &outcome(3));
        assert_eq!(log.committed(), 4, "4th trial completes the batch");
        for i in 4..10 {
            log.record_outcome(i, &outcome(i));
        }
        assert_eq!(log.committed(), 8, "trailing 2 wait for finish");
        assert_eq!(log.finish().unwrap(), 10);

        // Reopening resumes the full campaign, outcomes bit-identical.
        let (_log, resumed) = CheckpointLog::open(&spec, 7, 10, false).unwrap();
        let expected: Vec<TrialOutcome> = (0..10).map(outcome).collect();
        assert_eq!(resumed.outcomes, expected);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn out_of_order_completion_commits_contiguously() {
        let path = temp_path("ooo");
        let _ = std::fs::remove_file(&path);
        let spec = CheckpointSpec::new(&path, 2);
        let (log, _) = CheckpointLog::open(&spec, 1, 6, false).unwrap();
        log.record_outcome(3, &outcome(3));
        log.record_outcome(1, &outcome(1));
        assert_eq!(log.committed(), 0, "gap at 0 blocks the frontier");
        log.record_outcome(0, &outcome(0));
        assert_eq!(log.committed(), 2, "0..2 contiguous and >= interval");
        log.record_outcome(2, &outcome(2));
        assert_eq!(log.committed(), 4);
        assert_eq!(log.finish().unwrap(), 4, "5 never completed");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_and_resumed_past() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        let spec = CheckpointSpec::new(&path, 2);
        let (log, _) = CheckpointLog::open(&spec, 5, 8, false).unwrap();
        for i in 0..4 {
            log.record_outcome(i, &outcome(i));
        }
        log.finish().unwrap();
        // Simulate a crash tearing the next batch mid-line.
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"{\"kind\":\"trial\",\"index\":4,\"dispo")
            .unwrap();
        drop(file);

        let (log, resumed) = CheckpointLog::open(&spec, 5, 8, false).unwrap();
        assert_eq!(resumed.outcomes.len(), 4, "torn line dropped");
        // The file was truncated: appending continues cleanly.
        for i in 4..8 {
            log.record_outcome(i, &outcome(i));
        }
        log.finish().unwrap();
        let (_log, resumed) = CheckpointLog::open(&spec, 5, 8, false).unwrap();
        let expected: Vec<TrialOutcome> = (0..8).map(outcome).collect();
        assert_eq!(resumed.outcomes, expected);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mismatched_campaign_is_refused() {
        let path = temp_path("mismatch");
        let _ = std::fs::remove_file(&path);
        let spec = CheckpointSpec::new(&path, 2);
        let (log, _) = CheckpointLog::open(&spec, 9, 10, false).unwrap();
        log.finish().unwrap();
        for (seed, trials, traced, what) in [
            (8u64, 10usize, false, "seed"),
            (9, 11, false, "trials"),
            (9, 10, true, "traced"),
        ] {
            let err = CheckpointLog::open(&spec, seed, trials, traced)
                .err()
                .unwrap_or_else(|| panic!("{what} mismatch must be refused"));
            assert!(matches!(err, Error::Mismatch { .. }), "{what}: {err}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn shuffled_outcome_indices_are_corrupt_not_torn() {
        let path = temp_path("corrupt");
        let _ = std::fs::remove_file(&path);
        std::fs::write(
            &path,
            "{\"kind\":\"header\",\"v\":1,\"campaign_seed\":3,\"trials\":4,\"traced\":false}\n\
             {\"kind\":\"trial\",\"index\":2,\"disposition\":\"correct\",\"work_units\":1,\
             \"virtual_ns\":1,\"invocations\":1,\"design_cost_bits\":0}\n",
        )
        .unwrap();
        let spec = CheckpointSpec::new(&path, 2);
        let err = CheckpointLog::open(&spec, 3, 4, false).expect_err("index gap");
        assert!(matches!(err, Error::Corrupt { line: 2, .. }), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn traced_log_pairs_events_with_outcomes() {
        use redundancy_core::obs::{SpanKind, SpanStatus, Trace};

        let record = |i: u64| -> Vec<Event> {
            let mut trace = Trace::new();
            let span = trace.begin_span(0, || SpanKind::Trial { index: i, seed: i });
            trace.end_span(
                span,
                5,
                SpanStatus::Trial {
                    disposition: "correct",
                },
                redundancy_core::obs::CostSnapshot::ZERO,
            );
            let mut events = Vec::new();
            trace.hand_off(|buffered| events.append(buffered));
            events
        };

        let path = temp_path("traced");
        let _ = std::fs::remove_file(&path);
        let spec = CheckpointSpec::new(&path, 2);
        let (log, _) = CheckpointLog::open(&spec, 2, 4, true).unwrap();
        // Outcome may land before its events (a worker races the merge
        // frontier): the trial only commits once both halves are in.
        log.record_outcome(0, &outcome(0));
        log.record_outcome(1, &outcome(1));
        assert_eq!(log.committed(), 0, "events still missing");
        log.record_events(0, &record(0));
        log.record_events(1, &record(1));
        assert_eq!(log.committed(), 2);
        log.finish().unwrap();

        let (_log, resumed) = CheckpointLog::open(&spec, 2, 4, true).unwrap();
        assert_eq!(resumed.outcomes.len(), 2);
        assert_eq!(resumed.events.len(), 4, "two events per trial");
        assert_eq!(resumed.span_offset, 2, "one span id per trial");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn design_cost_round_trips_bit_exactly() {
        let path = temp_path("bits");
        let _ = std::fs::remove_file(&path);
        let spec = CheckpointSpec::new(&path, 1);
        let tricky = TrialOutcome::Correct {
            cost: Cost {
                design_cost: 0.1 + 0.2, // 0.30000000000000004
                ..Cost::ZERO
            },
        };
        let (log, _) = CheckpointLog::open(&spec, 4, 1, false).unwrap();
        log.record_outcome(0, &tricky);
        log.finish().unwrap();
        let (_log, resumed) = CheckpointLog::open(&spec, 4, 1, false).unwrap();
        assert_eq!(
            resumed.outcomes[0].cost().design_cost.to_bits(),
            (0.1f64 + 0.2).to_bits()
        );
        let _ = std::fs::remove_file(&path);
    }
}
