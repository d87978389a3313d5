//! The campaign flight recorder's control plane: a background sampler
//! over the lock-free telemetry registry.
//!
//! [`CampaignMonitor::start`] switches the global
//! [`telemetry`](redundancy_core::obs::telemetry) registry on and spawns
//! one sampler thread that snapshots it every
//! [`MonitorConfig::interval`]. Each tick can drive three outputs, all
//! optional and independent:
//!
//! - a **live stderr progress line** (`\r`-rewritten in place): trials
//!   done/scheduled, trials/sec over the last interval, ETA, workers
//!   busy, merger stalls, early-exit work saved, chaos/pool fault
//!   counts;
//! - a **JSONL snapshot stream**: one self-contained JSON object per
//!   tick with every counter and a digest of every latency histogram;
//! - a **Prometheus text file**, rewritten atomically
//!   (write-to-temp-then-rename) so a textfile collector never reads a
//!   torn exposition.
//!
//! Dropping the monitor stops the sampler, takes one final snapshot so
//! the exports cover the full campaign, and switches telemetry back off
//! — the engine's hooks return to their one-load-and-branch disabled
//! cost. The monitor observes; it never changes results: campaign
//! summaries and traced streams are bit-identical with it on or off.

use std::fmt::Write as _;
use std::fs::File;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use redundancy_core::obs::prometheus;
use redundancy_core::obs::telemetry::{Counter, Telemetry, TelemetrySnapshot, Timer};

/// What the sampler should do each tick. The default is the live stderr
/// line every 500 ms with no file exports.
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Time between snapshots (clamped to at least 1 ms).
    pub interval: Duration,
    /// Rewrite a progress line on stderr each tick.
    pub live: bool,
    /// Write the latest snapshot here in Prometheus text format
    /// (atomically, via a `.tmp` sibling) each tick.
    pub prometheus_path: Option<PathBuf>,
    /// Append one JSON object per tick to this file.
    pub jsonl_path: Option<PathBuf>,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            interval: Duration::from_millis(500),
            live: true,
            prometheus_path: None,
            jsonl_path: None,
        }
    }
}

/// Shared stop signal: flag + condvar so `Drop` interrupts a sleeping
/// sampler immediately instead of waiting out the interval.
struct StopSignal {
    stopped: AtomicBool,
    lock: Mutex<()>,
    wake: Condvar,
}

impl StopSignal {
    fn new() -> Self {
        StopSignal {
            stopped: AtomicBool::new(false),
            lock: Mutex::new(()),
            wake: Condvar::new(),
        }
    }

    fn stop(&self) {
        self.stopped.store(true, Ordering::Release);
        let _guard = self.lock.lock().expect("monitor stop lock never poisoned");
        self.wake.notify_all();
    }

    /// Sleeps up to `timeout`; returns `true` once stopped.
    fn wait(&self, timeout: Duration) -> bool {
        let guard = self.lock.lock().expect("monitor stop lock never poisoned");
        if self.stopped.load(Ordering::Acquire) {
            return true;
        }
        let (_guard, _timeout) = self
            .wake
            .wait_timeout(guard, timeout)
            .expect("monitor stop lock never poisoned");
        self.stopped.load(Ordering::Acquire)
    }
}

/// A running flight-recorder session. Constructed by
/// [`CampaignMonitor::start`]; dropping it (or calling
/// [`stop`](CampaignMonitor::stop)) finishes the session.
pub struct CampaignMonitor {
    signal: Arc<StopSignal>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl CampaignMonitor {
    /// Resets and enables the global telemetry registry, then starts the
    /// background sampler. One session at a time: the monitor owns the
    /// global registry while it runs (counters are reset at start so
    /// rates and ETA describe this session, not process history).
    ///
    /// # Panics
    ///
    /// Panics if the sampler thread cannot be spawned.
    #[must_use]
    pub fn start(config: MonitorConfig) -> Self {
        let telemetry = Telemetry::global();
        telemetry.reset();
        telemetry.set_enabled(true);
        let signal = Arc::new(StopSignal::new());
        let thread_signal = Arc::clone(&signal);
        let interval = config.interval.max(Duration::from_millis(1));
        let thread = std::thread::Builder::new()
            .name("redundancy-monitor".into())
            .spawn(move || {
                let mut sampler = Sampler::new(&config);
                while !thread_signal.wait(interval) {
                    sampler.tick(false);
                }
                sampler.tick(true);
            })
            .expect("monitor thread spawn");
        CampaignMonitor {
            signal,
            thread: Some(thread),
        }
    }

    /// Stops the sampler, waits for its final snapshot to be written,
    /// and disables telemetry. Equivalent to dropping the monitor.
    pub fn stop(self) {
        drop(self);
    }
}

impl Drop for CampaignMonitor {
    fn drop(&mut self) {
        self.signal.stop();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
        Telemetry::global().set_enabled(false);
    }
}

/// The sampler thread's state between ticks.
struct Sampler {
    started: Instant,
    live: bool,
    prometheus_path: Option<PathBuf>,
    jsonl: Option<File>,
    prev: TelemetrySnapshot,
    prev_at: Instant,
    line_was_live: bool,
}

impl Sampler {
    fn new(config: &MonitorConfig) -> Self {
        let jsonl = config.jsonl_path.as_ref().and_then(|path| {
            File::create(path)
                .map_err(|err| eprintln!("monitor: cannot create {}: {err}", path.display()))
                .ok()
        });
        let now = Instant::now();
        Sampler {
            started: now,
            live: config.live,
            prometheus_path: config.prometheus_path.clone(),
            jsonl,
            prev: Telemetry::global().snapshot(),
            prev_at: now,
            line_was_live: false,
        }
    }

    fn tick(&mut self, last: bool) {
        let snapshot = Telemetry::global().snapshot();
        let now = Instant::now();
        let dt = now.duration_since(self.prev_at);
        if self.live {
            let line = progress_line(&self.prev, &snapshot, dt);
            eprint!("\r{line}\x1b[K");
            self.line_was_live = true;
            if last {
                eprintln!();
            }
            let _ = std::io::stderr().flush();
        }
        if let Some(file) = &mut self.jsonl {
            let line = snapshot_json(&snapshot, now.duration_since(self.started), dt, &self.prev);
            let _ = writeln!(file, "{line}");
            let _ = file.flush();
        }
        if let Some(path) = &self.prometheus_path {
            let text = prometheus::render_telemetry(&snapshot);
            // Atomic replace: a scraper sees the old file or the new
            // one, never a torn write.
            let tmp = path.with_extension("tmp");
            let written = std::fs::write(&tmp, text).and_then(|()| std::fs::rename(&tmp, path));
            if let Err(err) = written {
                eprintln!("monitor: cannot write {}: {err}", path.display());
                self.prometheus_path = None;
            }
        }
        self.prev = snapshot;
        self.prev_at = now;
    }
}

/// Renders the live progress line from two consecutive snapshots `dt`
/// apart. Pure, so the format is unit-testable without a sampler.
#[must_use]
pub fn progress_line(prev: &TelemetrySnapshot, cur: &TelemetrySnapshot, dt: Duration) -> String {
    let completed = cur.trials_completed();
    let scheduled = cur.counter(Counter::TrialsScheduled);
    let runs = cur.counter(Counter::PatternRuns);
    let arrivals = cur.counter(Counter::ServiceArrivals);
    // Harnesses that drive the pattern engines directly (most exp_*
    // tables) never schedule Campaign trials; the service event-loop
    // runtime schedules neither trials nor pattern runs. Lead with what
    // actually moved so the line isn't a useless "0/0 trials".
    let (unit, completed, scheduled, prev_completed) = if scheduled == 0 && runs > 0 {
        ("patterns", runs, runs, prev.counter(Counter::PatternRuns))
    } else if scheduled == 0 && runs == 0 && arrivals > 0 {
        (
            "requests",
            cur.service_resolved(),
            arrivals,
            prev.service_resolved(),
        )
    } else {
        ("trials", completed, scheduled, prev.trials_completed())
    };
    let delta = completed.saturating_sub(prev_completed);
    #[allow(clippy::cast_precision_loss)]
    let rate = if dt.as_secs_f64() > 0.0 {
        delta as f64 / dt.as_secs_f64()
    } else {
        0.0
    };
    let mut line = if unit == "patterns" {
        format!("[monitor] {completed} patterns")
    } else {
        format!("[monitor] {completed}/{scheduled} {unit}")
    };
    let _ = write!(line, "  {} {unit}/s", fmt_compact(rate));
    if rate > 0.0 && scheduled > completed {
        #[allow(clippy::cast_precision_loss)]
        let eta = (scheduled - completed) as f64 / rate;
        let _ = write!(line, "  eta {}", fmt_seconds(eta));
    }
    let _ = write!(line, "  busy {}", cur.workers_busy());
    let stalls = cur.counter(Counter::MergerStalls);
    if stalls > 0 {
        let _ = write!(line, "  stalls {stalls}");
    }
    if cur.counter(Counter::PatternRuns) > 0 {
        let _ = write!(line, "  saved {:.1}%", 100.0 * cur.variant_work_saved());
    }
    if unit == "requests" {
        let _ = write!(line, "  inflight {}", cur.service_in_flight());
        let depth = cur.service_queue_depth();
        if depth > 0 {
            let _ = write!(line, "  queued {depth}");
        }
        let fired = cur.counter(Counter::ServiceHedgesFired);
        if fired > 0 {
            let _ = write!(
                line,
                "  hedges {fired}f/{}w",
                cur.counter(Counter::ServiceHedgesWon)
            );
        }
        let shed = cur.counter(Counter::ServiceRejected);
        if shed > 0 {
            let _ = write!(line, "  shed {shed}");
        }
        let opens = cur.counter(Counter::ServiceBreakerOpens);
        if opens > 0 {
            let _ = write!(
                line,
                "  breakers {opens}o/{}c",
                cur.counter(Counter::ServiceBreakerCloses)
            );
        }
    }
    let kills = cur.counter(Counter::ChaosKills);
    let cancels = cur.counter(Counter::ChaosCancels);
    if kills + cancels > 0 {
        let _ = write!(line, "  chaos {kills}k/{cancels}c");
    }
    let panics =
        cur.counter(Counter::PoolPanicsCaught) + cur.counter(Counter::PoolPanicsSuppressed);
    if panics > 0 {
        let _ = write!(line, "  panics {panics}");
    }
    line
}

/// `1234.5` -> `"1.2k"`, `3.2e6` -> `"3.2M"`; plain below 1000.
fn fmt_compact(rate: f64) -> String {
    if rate >= 1e6 {
        format!("{:.1}M", rate / 1e6)
    } else if rate >= 1e3 {
        format!("{:.1}k", rate / 1e3)
    } else {
        format!("{rate:.0}")
    }
}

/// Seconds to a short human ETA: `"850ms"`, `"12.3s"`, `"4m08s"`.
fn fmt_seconds(secs: f64) -> String {
    if secs < 1.0 {
        format!("{:.0}ms", secs * 1000.0)
    } else if secs < 60.0 {
        format!("{secs:.1}s")
    } else {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let whole = secs as u64;
        format!("{}m{:02}s", whole / 60, whole % 60)
    }
}

/// Renders one JSONL snapshot line: elapsed time, interval rate, every
/// counter, and a digest (count/sum/min/max/p50/p95/p99) per timer.
/// Pure and hand-rolled (the workspace carries no JSON dependency); the
/// shape is validated by [`validate_json`](redundancy_core::obs::validate_json)
/// in `monitor-smoke`.
#[must_use]
pub fn snapshot_json(
    cur: &TelemetrySnapshot,
    elapsed: Duration,
    dt: Duration,
    prev: &TelemetrySnapshot,
) -> String {
    let delta = cur
        .trials_completed()
        .saturating_sub(prev.trials_completed());
    #[allow(clippy::cast_precision_loss)]
    let rate = if dt.as_secs_f64() > 0.0 {
        delta as f64 / dt.as_secs_f64()
    } else {
        0.0
    };
    let mut out = String::with_capacity(1024);
    let _ = write!(
        out,
        "{{\"elapsed_ms\":{},\"trials_per_sec\":{:.3},\"counters\":{{",
        elapsed.as_millis(),
        rate
    );
    for (i, (counter, value)) in cur.counters().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{value}", counter.name());
    }
    out.push_str("},\"timers\":{");
    for (i, timer) in Timer::ALL.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let hist = cur.timer(*timer);
        let _ = write!(
            out,
            "\"{}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\
             \"p50\":{},\"p95\":{},\"p99\":{}}}",
            timer.name(),
            hist.count(),
            hist.sum(),
            hist.min().unwrap_or(0),
            hist.max().unwrap_or(0),
            hist.quantile(0.50).unwrap_or(0),
            hist.quantile(0.95).unwrap_or(0),
            hist.quantile(0.99).unwrap_or(0),
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use redundancy_core::obs::telemetry::Telemetry;

    /// Builds a pair of snapshots from a private registry (never the
    /// global one — unit tests run concurrently with campaign tests).
    fn sample_snapshots() -> (TelemetrySnapshot, TelemetrySnapshot) {
        let telemetry = Telemetry::new();
        let shard = telemetry.register_shard();
        shard.add(Counter::TrialsScheduled, 1000);
        shard.add(Counter::TrialsCorrect, 200);
        let prev = telemetry.snapshot();
        shard.add(Counter::TrialsCorrect, 230);
        shard.add(Counter::TrialsDetected, 20);
        shard.add(Counter::ChunksClaimed, 9);
        shard.add(Counter::ChunksCompleted, 6);
        shard.add(Counter::PatternRuns, 100);
        shard.add(Counter::VariantsExecuted, 300);
        shard.add(Counter::VariantsSkipped, 200);
        shard.observe_ns(Timer::TrialNs, 40_000);
        shard.observe_ns(Timer::TrialNs, 90_000);
        (prev, telemetry.snapshot())
    }

    #[test]
    fn progress_line_reports_rate_eta_and_saved_work() {
        let (prev, cur) = sample_snapshots();
        let line = progress_line(&prev, &cur, Duration::from_secs(1));
        assert!(line.starts_with("[monitor] 450/1000 trials"), "{line}");
        assert!(line.contains("250 trials/s"), "{line}");
        // 550 remaining at 250/s -> 2.2s.
        assert!(line.contains("eta 2.2s"), "{line}");
        assert!(line.contains("busy 3"), "{line}");
        assert!(line.contains("saved 40.0%"), "{line}");
        assert!(!line.contains("chaos"), "no chaos counters: {line}");
    }

    #[test]
    fn progress_line_handles_idle_and_finished_campaigns() {
        let telemetry = Telemetry::new();
        let empty = telemetry.snapshot();
        let line = progress_line(&empty, &empty, Duration::from_millis(500));
        assert!(line.starts_with("[monitor] 0/0 trials"), "{line}");
        assert!(!line.contains("eta"), "no ETA with no rate: {line}");
    }

    #[test]
    fn progress_line_falls_back_to_service_requests() {
        let telemetry = Telemetry::new();
        let shard = telemetry.register_shard();
        shard.add(Counter::ServiceArrivals, 500);
        shard.add(Counter::ServiceAdmitted, 450);
        let prev = telemetry.snapshot();
        shard.add(Counter::ServiceArrivals, 500);
        shard.add(Counter::ServiceAdmitted, 530);
        shard.add(Counter::ServiceOk, 880);
        shard.add(Counter::ServiceFailed, 10);
        shard.add(Counter::ServiceDeadlineExceeded, 10);
        shard.add(Counter::ServiceRejected, 20);
        shard.add(Counter::ServiceEnqueued, 40);
        shard.add(Counter::ServiceDequeued, 35);
        shard.add(Counter::ServiceHedgesFired, 60);
        shard.add(Counter::ServiceHedgesWon, 12);
        let cur = telemetry.snapshot();
        let line = progress_line(&prev, &cur, Duration::from_secs(1));
        assert!(line.starts_with("[monitor] 920/1000 requests"), "{line}");
        assert!(line.contains("920 requests/s"), "{line}");
        assert!(line.contains("inflight 80"), "{line}");
        assert!(line.contains("queued 5"), "{line}");
        assert!(line.contains("hedges 60f/12w"), "{line}");
        assert!(line.contains("shed 20"), "{line}");
        assert!(
            !line.contains("breakers"),
            "no breaker segment while nothing tripped: {line}"
        );
        shard.add(Counter::ServiceBreakerOpens, 4);
        shard.add(Counter::ServiceBreakerCloses, 3);
        let cur = telemetry.snapshot();
        let line = progress_line(&prev, &cur, Duration::from_secs(1));
        assert!(line.contains("breakers 4o/3c"), "{line}");
    }

    #[test]
    fn snapshot_json_lines_validate_and_carry_every_counter() {
        let (prev, cur) = sample_snapshots();
        let line = snapshot_json(
            &cur,
            Duration::from_millis(1500),
            Duration::from_secs(1),
            &prev,
        );
        redundancy_core::obs::validate_json(&line).expect("snapshot line is valid JSON");
        for counter in Counter::ALL {
            assert!(line.contains(&format!("\"{}\":", counter.name())), "{line}");
        }
        for timer in Timer::ALL {
            assert!(line.contains(&format!("\"{}\":", timer.name())), "{line}");
        }
        assert!(line.contains("\"elapsed_ms\":1500"), "{line}");
        assert!(line.contains("\"trials_per_sec\":250.000"), "{line}");
        assert!(line.contains("\"p95\":256000"), "{line}");
    }

    #[test]
    fn compact_and_seconds_formats() {
        assert_eq!(fmt_compact(0.0), "0");
        assert_eq!(fmt_compact(950.0), "950");
        assert_eq!(fmt_compact(12_345.0), "12.3k");
        assert_eq!(fmt_compact(3_200_000.0), "3.2M");
        assert_eq!(fmt_seconds(0.85), "850ms");
        assert_eq!(fmt_seconds(12.34), "12.3s");
        assert_eq!(fmt_seconds(248.0), "4m08s");
    }
}
