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

/// Every `REDUNDANCY_*` environment variable a knob reads. Any other
/// `REDUNDANCY_*` name is ignored, with a warning from
/// [`warn_unknown_knobs`].
const KNOBS: [&str; 4] = [TRIALS_ENV, SEED_ENV, JOBS_ENV, MONITOR_ENV];
const TRIALS_ENV: &str = "REDUNDANCY_TRIALS";
const SEED_ENV: &str = "REDUNDANCY_SEED";
const JOBS_ENV: &str = "REDUNDANCY_JOBS";
const MONITOR_ENV: &str = "REDUNDANCY_MONITOR_MS";

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
    env_or(TRIALS_ENV, parse_trials_env, || DEFAULT_TRIALS)
}

/// The fixed seed experiments run under (reproducibility); override with
/// `REDUNDANCY_SEED` (a decimal integer; any other value warns and runs
/// the default).
#[must_use]
pub fn default_seed() -> u64 {
    env_or(SEED_ENV, parse_seed_env, || DEFAULT_SEED)
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
    env_or(JOBS_ENV, parse_jobs_env, redundancy_sim::available_jobs)
}

/// Warns on stderr, once per name, about each `REDUNDANCY_*` environment
/// variable that no knob reads, so a typo or a removed knob is not
/// silently ignored. The `exp_*` binaries call this first in `main`.
pub fn warn_unknown_knobs() {
    let names = std::env::vars_os().map(|(name, _)| name.to_string_lossy().into_owned());
    for warning in unknown_knob_warnings(names) {
        eprintln!("{warning}");
    }
}

/// One warning for each `REDUNDANCY_*` name in `names` that is not in
/// [`KNOBS`].
fn unknown_knob_warnings<I: Iterator<Item = String>>(names: I) -> Vec<String> {
    names
        .filter(|name| name.starts_with("REDUNDANCY_") && !KNOBS.contains(&name.as_str()))
        .map(|name| {
            format!(
                "warning: ignoring {name}: no knob reads it (known: {})",
                KNOBS.join(", ")
            )
        })
        .collect()
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
        JOBS_ENV,
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
        TRIALS_ENV,
        value,
        |&trials| trials > 0,
        "a positive integer",
        &format!("the default {DEFAULT_TRIALS}"),
    )
}

/// Parses a `REDUNDANCY_SEED` value (a decimal `u64`).
fn parse_seed_env(value: &str) -> Result<u64, Option<String>> {
    parse_env(
        SEED_ENV,
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
/// (explicit flags win). An interval flag or variable whose value is not
/// a positive integer still turns the recorder on, and adds a warning
/// naming the flag or variable and the value — same warn-once contract
/// as `REDUNDANCY_JOBS` — while the interval falls back to the other
/// source or the default.
pub fn monitor_args<I: Iterator<Item = String>>(
    mut args: I,
    env_ms: Option<&str>,
) -> (MonitorArgs, Vec<String>) {
    let mut resolved = MonitorArgs::default();
    let mut warnings = Vec::new();
    while let Some(arg) = args.next() {
        let interval = if arg == "--monitor-interval-ms" {
            Some(args.next().unwrap_or_default())
        } else {
            arg.strip_prefix("--monitor-interval-ms=")
                .map(str::to_owned)
        };
        if let Some(value) = interval {
            // The user asked for monitoring, however garbled: run it
            // rather than silently not.
            resolved.enabled = true;
            match parse_monitor_ms("--monitor-interval-ms", &value, MONITOR_ENV) {
                Ok(ms) => resolved.interval_ms = Some(ms),
                Err(warning) => warnings.push(warning.unwrap_or_else(|| {
                    format!(
                        "warning: ignoring --monitor-interval-ms without a value, using \
                         {MONITOR_ENV} or the default {DEFAULT_MONITOR_INTERVAL_MS} ms"
                    )
                })),
            }
        } else if arg == "--monitor" {
            resolved.enabled = true;
        } else if let Some(path) = arg.strip_prefix("--monitor-prom=") {
            resolved.prometheus = Some(path.to_owned());
            resolved.enabled = true;
        } else if let Some(path) = arg.strip_prefix("--monitor-jsonl=") {
            resolved.jsonl = Some(path.to_owned());
            resolved.enabled = true;
        }
    }
    if let Some(value) = env_ms {
        match parse_monitor_ms(MONITOR_ENV, value, "--monitor-interval-ms") {
            Ok(ms) => {
                resolved.enabled = true;
                if resolved.interval_ms.is_none() {
                    resolved.interval_ms = Some(ms);
                }
            }
            Err(None) => {}
            Err(Some(warning)) => {
                resolved.enabled = true;
                warnings.push(warning);
            }
        }
    }
    (resolved, warnings)
}

/// Parses a flight-recorder sampling interval given as `name`'s value: a
/// positive integer of milliseconds. An invalid value's warning names
/// `other`, the interval source used instead, ahead of the default.
fn parse_monitor_ms(name: &str, value: &str, other: &str) -> Result<u64, Option<String>> {
    parse_env(
        name,
        value,
        |&ms| ms > 0,
        "a positive integer of milliseconds",
        &format!("{other} or the default {DEFAULT_MONITOR_INTERVAL_MS} ms"),
    )
}

/// Starts the campaign flight recorder if this invocation asked for it
/// (`--monitor` / `--monitor-interval-ms` / `--monitor-prom=` /
/// `--monitor-jsonl=` / `REDUNDANCY_MONITOR_MS`); prints the warn-once
/// message for each invalid interval. The `exp_*` binaries call
/// this at the top of `main` and hold the guard for their lifetime —
/// dropping it writes the final snapshot and switches telemetry off.
#[must_use]
pub fn monitor_from_args() -> Option<redundancy_sim::CampaignMonitor> {
    let env = std::env::var(MONITOR_ENV).ok();
    let (resolved, warnings) = monitor_args(std::env::args(), env.as_deref());
    for warning in warnings {
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
/// `Display` (typically `|jobs| run(trials, SEED, jobs)`); the macro
/// renders it at `jobs = 1` and requires the same bytes at `jobs = 2`
/// and `jobs = 8`.
///
/// Every experiment whose entry point takes `jobs` carries this test —
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
        let parse = |value| parse_monitor_ms(MONITOR_ENV, value, "--monitor-interval-ms");
        assert_eq!(parse("250"), Ok(250));
        assert_eq!(parse(" 1000 "), Ok(1000));
        assert_eq!(parse(""), Err(None));
        assert_eq!(parse("  "), Err(None));
        for bad in ["0", "fast", "-5"] {
            assert_warns(parse(bad), MONITOR_ENV, bad);
        }
    }

    fn resolve(args: &[&str], env: Option<&str>) -> (MonitorArgs, Vec<String>) {
        monitor_args(args.iter().map(ToString::to_string), env)
    }

    #[test]
    fn monitor_flags_resolve_and_imply_enablement() {
        let (off, warnings) = resolve(&["exp", "--jobs", "4"], None);
        assert_eq!(off, MonitorArgs::default());
        assert!(warnings.is_empty());

        let (on, _) = resolve(&["exp", "--monitor"], None);
        assert!(on.enabled);
        assert_eq!(on.interval_ms, None);

        for args in [
            &["exp", "--monitor-interval-ms", "50"][..],
            &["exp", "--monitor-interval-ms=50"][..],
        ] {
            let (resolved, warnings) = resolve(args, None);
            assert!(resolved.enabled, "interval flag implies --monitor");
            assert_eq!(resolved.interval_ms, Some(50));
            assert!(warnings.is_empty());
        }

        // A garbled, zero or missing interval still turns the recorder
        // on, at the default interval, and warns naming the flag and the
        // value — the contract REDUNDANCY_MONITOR_MS keeps.
        for (args, bad) in [
            (&["exp", "--monitor-interval-ms", "abc"][..], Some("abc")),
            (&["exp", "--monitor-interval-ms=abc"][..], Some("abc")),
            (&["exp", "--monitor-interval-ms=0"][..], Some("0")),
            (&["exp", "--monitor-interval-ms"][..], None),
        ] {
            let (resolved, warnings) = resolve(args, None);
            assert!(resolved.enabled, "{args:?} must still monitor");
            assert_eq!(
                resolved.interval_ms, None,
                "{args:?} samples at the default"
            );
            assert_eq!(warnings.len(), 1, "{args:?} warns once: {warnings:?}");
            assert!(
                warnings[0].contains("--monitor-interval-ms")
                    && bad.is_none_or(|bad| warnings[0].contains(&format!("{bad:?}"))),
                "warning must name the flag and the value: {}",
                warnings[0]
            );
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
        let (from_env, warnings) = resolve(&["exp"], Some("250"));
        assert!(from_env.enabled);
        assert_eq!(from_env.interval_ms, Some(250));
        assert!(warnings.is_empty());

        let (explicit, _) = resolve(&["exp", "--monitor-interval-ms=50"], Some("250"));
        assert_eq!(explicit.interval_ms, Some(50));

        // A garbled flag falls back to a valid variable.
        let (fallback, warnings) = resolve(&["exp", "--monitor-interval-ms=x"], Some("250"));
        assert_eq!(fallback.interval_ms, Some(250));
        assert_eq!(warnings.len(), 1);

        // Garbage env still turns monitoring on, at the default interval,
        // and surfaces the warn-once message.
        let (garbled, warnings) = resolve(&["exp"], Some("fast"));
        assert!(garbled.enabled);
        assert_eq!(garbled.interval_ms, None);
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains(MONITOR_ENV));

        // Empty env is "unset": silent, stays off.
        let (unset, warnings) = resolve(&["exp"], Some(""));
        assert!(!unset.enabled);
        assert!(warnings.is_empty());
    }

    #[test]
    fn only_unknown_redundancy_names_warn() {
        let names = [
            "REDUNDANCY_TRIALS",
            "REDUNDANCY_SEED",
            "REDUNDANCY_JOBS",
            "REDUNDANCY_MONITOR_MS",
            "REDUNDANCY_TRAILS",
            "REDUNDANCY_HEDGE_DELAY",
            "PATH",
            "CRITERION_SAMPLES",
        ];
        let warnings = unknown_knob_warnings(names.iter().map(ToString::to_string));
        assert_eq!(warnings.len(), 2, "{warnings:?}");
        assert!(warnings[0].contains("REDUNDANCY_TRAILS") && warnings[0].contains("ignoring"));
        assert!(warnings[1].contains("REDUNDANCY_HEDGE_DELAY"));
    }

    /// The user-facing docs advertise only knobs some code reads.
    #[test]
    fn docs_name_only_live_knobs() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for doc in ["README.md", "DESIGN.md", "EXPERIMENTS.md"] {
            let text = std::fs::read_to_string(root.join(doc)).expect("doc is readable");
            for (at, _) in text.match_indices("REDUNDANCY_") {
                let len = text[at..]
                    .find(|c: char| !(c.is_ascii_uppercase() || c == '_'))
                    .unwrap_or(text.len() - at);
                let token = &text[at..at + len];
                assert!(
                    token == "REDUNDANCY_" || KNOBS.contains(&token),
                    "{doc} names {token}, which no knob reads"
                );
            }
        }
    }
}
