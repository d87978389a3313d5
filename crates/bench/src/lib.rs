//! Experiment regenerators for the paper's tables, figure, and
//! quantitative claims.
//!
//! Each module under [`experiments`] reproduces one artifact (see
//! `EXPERIMENTS.md` at the repository root for the index) and is exposed
//! both as a library function returning a [`Table`] — unit-tested for its
//! qualitative shape — and as a binary (`exp_*`) that prints it.
//!
//! The default trial counts keep every binary under a few seconds; set
//! the `REDUNDANCY_TRIALS` environment variable to raise them for tighter
//! confidence intervals.
//!
//! [`Table`]: redundancy_sim::table::Table

#![warn(missing_docs)]

pub mod experiments;

/// Trials per campaign unless `REDUNDANCY_TRIALS` says otherwise.
const DEFAULT_TRIALS: usize = 2_000;

/// The seed experiments run under unless `REDUNDANCY_SEED` says
/// otherwise.
const DEFAULT_SEED: u64 = 0x5eed_2008;

/// Default number of Monte-Carlo trials, overridable via the
/// `REDUNDANCY_TRIALS` environment variable (a positive integer; any
/// other value warns and runs the default).
#[must_use]
pub fn default_trials() -> usize {
    env_or("REDUNDANCY_TRIALS", parse_trials_env, || DEFAULT_TRIALS)
}

/// The fixed seed experiments run under (reproducibility); override with
/// `REDUNDANCY_SEED` (a decimal integer; any other value warns and runs
/// the default).
#[must_use]
pub fn default_seed() -> u64 {
    env_or("REDUNDANCY_SEED", parse_seed_env, || DEFAULT_SEED)
}

/// The worker-thread count for experiment campaigns: `--jobs N` on the
/// command line, else the `REDUNDANCY_JOBS` environment variable, else
/// the hardware's available parallelism. A flag or variable value that
/// is not a positive integer warns, naming it, and falls through to the
/// next source.
///
/// Results are bit-for-bit identical for any value (see
/// [`redundancy_sim::parallel`]); the knob only trades wall-clock time
/// for cores.
#[must_use]
pub fn jobs_arg() -> usize {
    match parse_jobs_flag(std::env::args()) {
        Ok(Some(jobs)) => return jobs,
        Ok(None) => {}
        Err(warning) => eprintln!("{warning}"),
    }
    env_or(
        "REDUNDANCY_JOBS",
        parse_jobs_env,
        redundancy_sim::available_jobs,
    )
}

/// Reads the environment variable `name` through `parse`: a valid value
/// is used, an unset or empty one silently falls back to `default`, and
/// an invalid one prints `parse`'s warning before falling back.
fn env_or<T>(
    name: &str,
    parse: fn(&str) -> Result<T, Option<String>>,
    default: impl FnOnce() -> T,
) -> T {
    match std::env::var(name).as_deref().map(parse) {
        Ok(Ok(value)) => value,
        Ok(Err(Some(warning))) => {
            eprintln!("{warning}");
            default()
        }
        Ok(Err(None)) | Err(_) => default(),
    }
}

/// Parses one environment value: `Ok(v)` when the trimmed value parses
/// and passes `valid`, `Err(None)` for an empty value (treated as
/// unset), `Err(Some(msg))` for a set-but-ignored value — the message
/// names the variable, the value, what was `expected` and the
/// `fallback` used instead, so a typo doesn't silently run the default.
fn parse_env<T: std::str::FromStr>(
    name: &str,
    value: &str,
    valid: fn(&T) -> bool,
    expected: &str,
    fallback: &str,
) -> Result<T, Option<String>> {
    match value.trim().parse::<T>() {
        Ok(parsed) if valid(&parsed) => Ok(parsed),
        _ if value.trim().is_empty() => Err(None),
        _ => Err(Some(format!(
            "warning: ignoring {name}={value:?}: expected {expected}, using {fallback}"
        ))),
    }
}

/// Parses a `REDUNDANCY_JOBS` value (a positive integer; `0` or `abc`
/// would otherwise silently re-serialize the campaign on the hardware
/// default).
fn parse_jobs_env(value: &str) -> Result<usize, Option<String>> {
    parse_env(
        "REDUNDANCY_JOBS",
        value,
        |&jobs| jobs > 0,
        "a positive integer",
        "available parallelism",
    )
}

/// Parses a `REDUNDANCY_TRIALS` value (a positive integer: a campaign
/// of zero trials has nothing to summarize).
fn parse_trials_env(value: &str) -> Result<usize, Option<String>> {
    parse_env(
        "REDUNDANCY_TRIALS",
        value,
        |&trials| trials > 0,
        "a positive integer",
        &format!("the default {DEFAULT_TRIALS}"),
    )
}

/// Parses a `REDUNDANCY_SEED` value (a decimal `u64`).
fn parse_seed_env(value: &str) -> Result<u64, Option<String>> {
    parse_env(
        "REDUNDANCY_SEED",
        value,
        |_| true,
        "a decimal integer",
        &format!("the default seed {DEFAULT_SEED}"),
    )
}

/// Finds `--jobs N` / `--jobs=N` in `args`: `Ok(Some(n))` for a positive
/// integer, `Ok(None)` when the flag is absent, and `Err(msg)` naming
/// the flag and the value when the value is missing or not a positive
/// integer.
fn parse_jobs_flag<I: Iterator<Item = String>>(mut args: I) -> Result<Option<usize>, String> {
    while let Some(arg) = args.next() {
        let value = if arg == "--jobs" {
            args.next().unwrap_or_default()
        } else if let Some(value) = arg.strip_prefix("--jobs=") {
            value.to_owned()
        } else {
            continue;
        };
        return match value.trim().parse::<usize>() {
            Ok(jobs) if jobs > 0 => Ok(Some(jobs)),
            _ => Err(format!(
                "warning: ignoring --jobs {value:?}: expected a positive integer, \
                 using REDUNDANCY_JOBS or available parallelism"
            )),
        };
    }
    Ok(None)
}

/// Default sampling interval of the campaign flight recorder.
pub const DEFAULT_MONITOR_INTERVAL_MS: u64 = 500;

/// How the `--monitor` family of flags resolved for this invocation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MonitorArgs {
    /// Whether the flight recorder should run at all.
    pub enabled: bool,
    /// Sampling interval in milliseconds (`None` = default 500 ms).
    pub interval_ms: Option<u64>,
    /// `--monitor-prom=PATH`: write Prometheus text format here.
    pub prometheus: Option<String>,
    /// `--monitor-jsonl=PATH`: append JSONL snapshots here.
    pub jsonl: Option<String>,
}

/// Resolves the flight-recorder knobs from command-line arguments and
/// the `REDUNDANCY_MONITOR_MS` environment variable.
///
/// `--monitor` turns the recorder on; `--monitor-interval-ms N` (or
/// `=N`), `--monitor-prom=PATH` and `--monitor-jsonl=PATH` each imply
/// it. A valid `REDUNDANCY_MONITOR_MS` turns it on at that interval
/// (explicit flags win); an invalid one still turns it on but returns a
/// warning naming the variable and value — same warn-once contract as
/// `REDUNDANCY_JOBS` — and falls back to the default interval.
pub fn monitor_args<I: Iterator<Item = String>>(
    args: I,
    env_ms: Option<&str>,
) -> (MonitorArgs, Option<String>) {
    let mut resolved = MonitorArgs::default();
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        if arg == "--monitor" {
            resolved.enabled = true;
        } else if arg == "--monitor-interval-ms" {
            if let Some(ms) = args.next().and_then(|s| s.parse().ok()) {
                resolved.interval_ms = Some(ms);
                resolved.enabled = true;
            }
        } else if let Some(ms) = arg
            .strip_prefix("--monitor-interval-ms=")
            .and_then(|s| s.parse().ok())
        {
            resolved.interval_ms = Some(ms);
            resolved.enabled = true;
        } else if let Some(path) = arg.strip_prefix("--monitor-prom=") {
            resolved.prometheus = Some(path.to_owned());
            resolved.enabled = true;
        } else if let Some(path) = arg.strip_prefix("--monitor-jsonl=") {
            resolved.jsonl = Some(path.to_owned());
            resolved.enabled = true;
        }
    }
    let mut warning = None;
    if let Some(value) = env_ms {
        match parse_monitor_env(value) {
            Ok(ms) => {
                resolved.enabled = true;
                if resolved.interval_ms.is_none() {
                    resolved.interval_ms = Some(ms);
                }
            }
            Err(None) => {}
            Err(Some(message)) => {
                // The user asked for monitoring, however garbled: run it
                // at the default interval rather than silently not.
                resolved.enabled = true;
                warning = Some(message);
            }
        }
    }
    (resolved, warning)
}

/// Parses a `REDUNDANCY_MONITOR_MS` value: `Ok(ms)` for a positive
/// integer, `Err(None)` for an empty value (treated as unset),
/// `Err(Some(msg))` for a set-but-unusable value.
fn parse_monitor_env(value: &str) -> Result<u64, Option<String>> {
    match value.trim().parse::<u64>() {
        Ok(ms) if ms > 0 => Ok(ms),
        _ if value.trim().is_empty() => Err(None),
        _ => Err(Some(format!(
            "warning: ignoring REDUNDANCY_MONITOR_MS={value:?}: expected a positive integer \
             of milliseconds, monitoring at the default {DEFAULT_MONITOR_INTERVAL_MS} ms"
        ))),
    }
}

/// Starts the campaign flight recorder if this invocation asked for it
/// (`--monitor` / `--monitor-interval-ms` / `--monitor-prom=` /
/// `--monitor-jsonl=` / `REDUNDANCY_MONITOR_MS`); prints the warn-once
/// message for an invalid environment value. The `exp_*` binaries call
/// this at the top of `main` and hold the guard for their lifetime —
/// dropping it writes the final snapshot and switches telemetry off.
#[must_use]
pub fn monitor_from_args() -> Option<redundancy_sim::CampaignMonitor> {
    let env = std::env::var("REDUNDANCY_MONITOR_MS").ok();
    let (resolved, warning) = monitor_args(std::env::args(), env.as_deref());
    if let Some(warning) = warning {
        eprintln!("{warning}");
    }
    if !resolved.enabled {
        return None;
    }
    let config = redundancy_sim::MonitorConfig {
        interval: std::time::Duration::from_millis(
            resolved.interval_ms.unwrap_or(DEFAULT_MONITOR_INTERVAL_MS),
        ),
        live: true,
        prometheus_path: resolved.prometheus.map(std::path::PathBuf::from),
        jsonl_path: resolved.jsonl.map(std::path::PathBuf::from),
    };
    Some(redundancy_sim::CampaignMonitor::start(config))
}

/// Whether `--trace` was passed on the command line: `exp_*` binaries
/// that support it attach a [`RingBufferObserver`] and print the trace
/// [`summary`] (and per-technique metrics) after their tables.
///
/// [`RingBufferObserver`]: redundancy_core::obs::RingBufferObserver
/// [`summary`]: redundancy_core::obs::summary
#[must_use]
pub fn trace_enabled() -> bool {
    std::env::args().any(|arg| arg == "--trace")
}

/// Asserts that an experiment is **jobs-invariant**: the rendered table
/// must be byte-identical whether its campaign runs serially or sharded
/// across worker threads. Pass a closure mapping a job count to anything
/// `Display` (typically `|jobs| run_jobs(trials, SEED, jobs)`); the
/// macro renders it at `jobs = 1` and requires the same bytes at
/// `jobs = 2` and `jobs = 8`.
///
/// Every experiment with a `run_jobs` entry point carries this test —
/// parallelism must only ever trade wall-clock time for cores, never
/// change results.
///
/// # Examples
///
/// ```
/// redundancy_bench::assert_jobs_invariant!(|jobs| {
///     format!("a table that ignores its {} workers", usize::from(jobs > 0))
/// });
/// ```
#[macro_export]
macro_rules! assert_jobs_invariant {
    ($make:expr) => {{
        #[allow(unused_mut)]
        let mut make = $make;
        let serial = make(1usize).to_string();
        for jobs in [2usize, 8] {
            assert_eq!(serial, make(jobs).to_string(), "jobs={jobs}");
        }
    }};
}

/// Formats a rate as a fixed-width string.
#[must_use]
pub fn fmt_rate(rate: f64) -> String {
    format!("{rate:.3}")
}

/// Formats an optional rate ("—" when not applicable).
#[must_use]
pub fn fmt_opt_rate(rate: Option<f64>) -> String {
    rate.map_or_else(|| "   —".to_owned(), |r| format!("{r:.3}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_env_values_parse_warn_or_stay_silent() {
        assert_eq!(parse_jobs_env("4"), Ok(4));
        assert_eq!(parse_jobs_env(" 16 "), Ok(16));
        // Empty is "unset": silent fallback.
        assert_eq!(parse_jobs_env(""), Err(None));
        assert_eq!(parse_jobs_env("  "), Err(None));
        // Garbage and zero warn, naming the variable and the value.
        for bad in ["0", "abc", "-2"] {
            let warning = parse_jobs_env(bad)
                .expect_err("bad value falls back")
                .expect("bad value warns");
            assert!(
                warning.contains("REDUNDANCY_JOBS") && warning.contains(bad),
                "warning must name the variable and the value: {warning}"
            );
        }
    }

    /// Asserts that `bad` warns and the warning names `name` and `bad`.
    fn assert_warns<T: std::fmt::Debug>(parsed: Result<T, Option<String>>, name: &str, bad: &str) {
        let warning = parsed
            .expect_err("bad value falls back")
            .expect("bad value warns");
        assert!(
            warning.contains(name) && warning.contains(&format!("{bad:?}")),
            "warning must name the variable and the value: {warning}"
        );
    }

    #[test]
    fn trials_env_values_parse_warn_or_stay_silent() {
        assert_eq!(parse_trials_env("300"), Ok(300));
        assert_eq!(parse_trials_env(" 50 "), Ok(50));
        assert_eq!(parse_trials_env(""), Err(None));
        // Zero trials would summarize nothing (E4 would print NaN).
        for bad in ["0", "lots", "-3"] {
            assert_warns(parse_trials_env(bad), "REDUNDANCY_TRIALS", bad);
        }
    }

    #[test]
    fn seed_env_values_parse_warn_or_stay_silent() {
        assert_eq!(parse_seed_env("42"), Ok(42));
        assert_eq!(parse_seed_env("0"), Ok(0));
        assert_eq!(parse_seed_env(" "), Err(None));
        // Seeds are decimal: a hex seed warns instead of silently running
        // the default.
        for bad in ["0x2a", "seed", "-1"] {
            assert_warns(parse_seed_env(bad), "REDUNDANCY_SEED", bad);
        }
    }

    #[test]
    fn jobs_flag_parses_or_warns() {
        let parse = |args: &[&str]| parse_jobs_flag(args.iter().map(ToString::to_string));
        assert_eq!(parse(&["exp"]), Ok(None));
        assert_eq!(parse(&["exp", "--trace"]), Ok(None));
        assert_eq!(parse(&["exp", "--jobs", "4"]), Ok(Some(4)));
        assert_eq!(parse(&["exp", "--jobs=8", "--trace"]), Ok(Some(8)));
        for (args, bad) in [
            (&["exp", "--jobs", "abc"][..], "abc"),
            (&["exp", "--jobs=0"][..], "0"),
            (&["exp", "--jobs"][..], ""),
        ] {
            let warning = parse(args).expect_err("bad flag warns");
            assert!(
                warning.contains("--jobs") && warning.contains(&format!("{bad:?}")),
                "warning must name the flag and the value: {warning}"
            );
        }
    }

    #[test]
    fn monitor_env_values_parse_warn_or_stay_silent() {
        assert_eq!(parse_monitor_env("250"), Ok(250));
        assert_eq!(parse_monitor_env(" 1000 "), Ok(1000));
        assert_eq!(parse_monitor_env(""), Err(None));
        assert_eq!(parse_monitor_env("  "), Err(None));
        for bad in ["0", "fast", "-5"] {
            let warning = parse_monitor_env(bad)
                .expect_err("bad value falls back")
                .expect("bad value warns");
            assert!(
                warning.contains("REDUNDANCY_MONITOR_MS") && warning.contains(bad),
                "warning must name the variable and the value: {warning}"
            );
        }
    }

    fn resolve(args: &[&str], env: Option<&str>) -> (MonitorArgs, Option<String>) {
        monitor_args(args.iter().map(ToString::to_string), env)
    }

    #[test]
    fn monitor_flags_resolve_and_imply_enablement() {
        let (off, warning) = resolve(&["exp", "--jobs", "4"], None);
        assert_eq!(off, MonitorArgs::default());
        assert!(warning.is_none());

        let (on, _) = resolve(&["exp", "--monitor"], None);
        assert!(on.enabled);
        assert_eq!(on.interval_ms, None);

        for args in [
            &["exp", "--monitor-interval-ms", "50"][..],
            &["exp", "--monitor-interval-ms=50"][..],
        ] {
            let (resolved, _) = resolve(args, None);
            assert!(resolved.enabled, "interval flag implies --monitor");
            assert_eq!(resolved.interval_ms, Some(50));
        }

        let (paths, _) = resolve(
            &[
                "exp",
                "--monitor-prom=/tmp/m.prom",
                "--monitor-jsonl=m.jsonl",
            ],
            None,
        );
        assert!(paths.enabled, "export paths imply --monitor");
        assert_eq!(paths.prometheus.as_deref(), Some("/tmp/m.prom"));
        assert_eq!(paths.jsonl.as_deref(), Some("m.jsonl"));
    }

    #[test]
    fn monitor_env_enables_but_explicit_interval_wins() {
        let (from_env, warning) = resolve(&["exp"], Some("250"));
        assert!(from_env.enabled);
        assert_eq!(from_env.interval_ms, Some(250));
        assert!(warning.is_none());

        let (explicit, _) = resolve(&["exp", "--monitor-interval-ms=50"], Some("250"));
        assert_eq!(explicit.interval_ms, Some(50));

        // Garbage env still turns monitoring on, at the default interval,
        // and surfaces the warn-once message.
        let (garbled, warning) = resolve(&["exp"], Some("fast"));
        assert!(garbled.enabled);
        assert_eq!(garbled.interval_ms, None);
        assert!(warning
            .expect("garbage warns")
            .contains("REDUNDANCY_MONITOR_MS"));

        // Empty env is "unset": silent, stays off.
        let (unset, warning) = resolve(&["exp"], Some(""));
        assert!(!unset.enabled);
        assert!(warning.is_none());
    }
}
