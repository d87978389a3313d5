//! `perfbench`: one benchmark run.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --regen-refs
//! perfbench --setup-probe --workload <name> --seed <n>
//! perfbench --references --workload <name> --seed <n>
//! ```
//!
//! Run it through `perfbench/run.py`, which builds it, clears the
//! `REDUNDANCY_*` knobs and passes the commit for the header line. The
//! last line of standard output is the JSON result.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use redundancy_perfbench::harness::{timed_pass, traced_run, Breakdown, Checker, Source};
use redundancy_perfbench::metrics::result_line;
use redundancy_perfbench::probe;
use redundancy_perfbench::refs::{self, Pinned};
use redundancy_perfbench::stats::{median, quantile};
use redundancy_perfbench::workload::{seed_set, simulated_stats, Bench, Fingerprint, Kind, Output};
use redundancy_perfbench::{bench_dir, work_dir};

/// Set-up samples per run: this process plus `SETUP_PROBES` fresh ones.
const SETUP_PROBES: usize = 8;

/// Worker threads a call uses. Calls that coordinate two threads stall
/// whenever either vCPU stalls: at `jobs = 2` the run-to-run spread of
/// `call_ms_p90` on the sizing host was 15–40% (and 28% in `peak_rss_mb`
/// for the resumable runner), beyond any usable bound, against at most 7%
/// at `jobs = 1`. The traced run measures every workload at `nproc` too,
/// for the speed-up metrics.
const JOBS: usize = 1;

struct Args {
    kind: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    regen: bool,
    setup_probe: bool,
    references: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        kind: None,
        seed: 0,
        seconds: 10.0,
        trace: false,
        regen: false,
        setup_probe: false,
        references: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.kind =
                    Some(Kind::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--regen-refs" => args.regen = true,
            "--setup-probe" => args.setup_probe = true,
            "--references" => args.references = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !args.regen && args.kind.is_none() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Builds the workload and warms it with one call on the first seed of
/// the set. Returns the bench and the warm-up output (`None` if the call
/// panicked).
fn setup(kind: Kind, seeds: &[u64]) -> (Bench, Option<Output>) {
    let bench = Bench::new(kind, JOBS, kind.items_per_call(), false, &work_dir());
    let output = catch_unwind(AssertUnwindSafe(|| bench.call(seeds[0], 0).0)).ok();
    (bench, output)
}

/// Set-up time of one fresh process of this binary, in seconds.
fn setup_probe(kind: Kind, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|err| format!("cannot find own binary: {err}"))?;
    let out = Command::new(&exe)
        .args(["--setup-probe", "--workload", kind.name()])
        .args(["--seed", &seed.to_string()])
        .output()
        .map_err(|err| format!("setup probe did not start: {err}"))?;
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .and_then(|line| line.strip_prefix("setup_s="))
        .and_then(|v| v.parse().ok())
        .filter(|_| out.status.success())
        .ok_or_else(|| {
            format!(
                "setup probe failed: {}",
                String::from_utf8_lossy(&out.stderr)
            )
        })
}

/// The self-consistency references of `kind` and of its traced-run
/// baseline on `base`'s seed set, computed by a child process of this
/// binary, so that the reference replays' memory never shows in this
/// run's `peak_rss_mb`.
fn references_in_child(kind: Kind, base: u64) -> Result<Pinned, String> {
    let exe = std::env::current_exe().map_err(|err| format!("cannot find own binary: {err}"))?;
    let out = Command::new(&exe)
        .args(["--references", "--workload", kind.name()])
        .args(["--seed", &base.to_string()])
        .output()
        .map_err(|err| format!("reference process did not start: {err}"))?;
    if !out.status.success() {
        return Err(format!(
            "reference process failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Pinned::parse(&String::from_utf8_lossy(&out.stdout))
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Peak resident set of this process (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn header(args: &Args, kind: Kind, seeds: &[u64], source: Source) -> String {
    let nproc = redundancy_sim::available_jobs();
    let knobs = std::env::var("PERFBENCH_KNOBS_SEEN").unwrap_or_default();
    let knobs = if knobs.is_empty() {
        "none".to_owned()
    } else {
        format!("{knobs}(cleared)")
    };
    let seeds: Vec<String> = seeds.iter().map(|s| format!("{s:016x}")).collect();
    format!(
        "perfbench workload={} seed={} seed_set=[{}] items_per_call={} jobs={} shards={} nproc={} \
         cpu=\"{}\" commit={} knobs_seen={} trace={} seconds={} references={}",
        kind.name(),
        args.seed,
        seeds.join(","),
        kind.items_per_call(),
        JOBS,
        kind.shards(),
        nproc,
        cpu_model(),
        std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".to_owned()),
        knobs,
        u8::from(args.trace),
        args.seconds,
        match source {
            Source::Pinned => "pinned",
            Source::SelfConsistency => "self-consistency",
        }
    )
}

/// Prints the simulated statistics of the seed set next to the
/// references they were checked against.
fn print_simulated(kind: Kind, checker: &Checker, seen: &[Option<Fingerprint>]) {
    let label = match checker.source {
        Source::Pinned => "pinned",
        Source::SelfConsistency => "reference",
    };
    let stats = |fingerprints: Vec<&Fingerprint>| {
        let all: Vec<[(&str, f64); 3]> = fingerprints
            .iter()
            .map(|fp| simulated_stats(kind, fp))
            .collect();
        (0..3)
            .map(|i| {
                (
                    all[0][i].0,
                    all.iter().map(|s| s[i].1).sum::<f64>() / all.len() as f64,
                )
            })
            .collect::<Vec<_>>()
    };
    let expected = stats(checker.expected.iter().collect());
    let seen: Vec<_> = seen.iter().flatten().collect();
    if seen.is_empty() {
        return;
    }
    let measured = stats(seen);
    println!("simulated (mean over the seed set)      measured        {label}");
    for ((name, got), (_, want)) in measured.iter().zip(&expected) {
        println!("  {name:<36} {got:>14.6} {want:>14.6}");
    }
}

fn print_breakdown(kind: Kind, b: &Breakdown) {
    let item = if kind.is_campaign() {
        "trial"
    } else {
        "request"
    };
    println!(
        "layer breakdown: thread-ns per {item} (call host time x busy threads / items); \
         span cost {:.1} ns in-span, {:.1} ns per nested child (subtracted); \
         sampled closure rows scaled by {:.3} to the whole-timed closure mean",
        b.span_cost.0, b.span_cost.1, b.closure_scale
    );
    for row in &b.rows {
        println!(
            "  {:<22} {:>10.1} ns {:>6.1}%  {}",
            row.name,
            row.ns_per_item,
            100.0 * row.ns_per_item / b.total_ns_per_item,
            row.how
        );
    }
    println!("  {:<22} {:>10.1} ns  100.0%", "total", b.total_ns_per_item);
    let label = if b.parallel_verified {
        "measured, untraced jobs = nproc vs jobs = 1"
    } else {
        "UNVERIFIED: nproc = 1"
    };
    println!(
        "per-layer metrics (0 where the workload does not exercise the layer; speed-ups {label}):"
    );
    for (name, value) in &b.metrics {
        println!("  {name:<42} {value:.4}");
    }
}

fn run(args: &Args, kind: Kind, started: Instant) -> Result<ExitCode, String> {
    let seeds = seed_set(args.seed);
    let (mut bench, warm) = setup(kind, &seeds);
    let setup_main = started.elapsed().as_secs_f64();
    if args.setup_probe {
        bench.remove_checkpoints();
        println!("setup_s={setup_main}");
        return Ok(ExitCode::SUCCESS);
    }

    let pinned = Pinned::load(&bench_dir().join("references.tsv"))?;
    let (references, source) = if pinned
        .get(&refs::key(kind, bench.items()), args.seed)
        .is_some()
    {
        (pinned, Source::Pinned)
    } else {
        (
            references_in_child(kind, args.seed)?,
            Source::SelfConsistency,
        )
    };
    let checker = Checker {
        source,
        ..Checker::new(kind, args.seed, bench.items(), &references)
    };
    println!("{}", header(args, kind, &seeds, checker.source));
    let mut attempted = 1;
    let mut failed = usize::from(
        !warm
            .as_ref()
            .is_some_and(|out| checker.check(0, out, bench.items())),
    );

    let metrics: Vec<(&str, f64)>;
    let last;
    if args.trace {
        let instrumented = Bench::new(kind, JOBS, bench.items(), true, &work_dir());
        let base_bench = kind.baseline().map(|base| {
            let items = base.items_per_call();
            Bench::new(base, JOBS, items, true, &work_dir())
        });
        let base_checker = base_bench
            .as_ref()
            .map(|b| Checker::new(b.kind(), args.seed, b.items(), &references));
        let baseline = base_bench.as_ref().zip(base_checker.as_ref());
        let breakdown = traced_run(
            &mut bench,
            &instrumented,
            baseline,
            &checker,
            args.seconds,
            redundancy_sim::available_jobs(),
        );
        attempted += breakdown.attempted;
        failed += breakdown.failed;
        print_simulated(kind, &checker, &breakdown.seen);
        print_breakdown(kind, &breakdown);
        let spans = work_dir().join(format!("spans-{}-seed{}.tsv", kind.name(), args.seed));
        match probe::write_spans(&spans, &breakdown.spans) {
            Ok(()) => println!(
                "spans: {} kept, written to {}",
                breakdown.spans.len(),
                spans.display()
            ),
            Err(err) => eprintln!("warning: spans not written: {err}"),
        }
        last = breakdown.last;
        metrics = breakdown.metrics;
    } else {
        // The set-up probes run between timed calls, spread over the
        // pass, so one run's set-ups sample the host across the whole run
        // rather than one moment of it.
        let mut setups = vec![setup_main];
        let mut probe_error: Option<String> = None;
        let probe = |setups: &mut Vec<f64>, error: &mut Option<String>| {
            if error.is_none() {
                match setup_probe(kind, args.seed) {
                    Ok(s) => setups.push(s),
                    Err(err) => *error = Some(err),
                }
            }
        };
        let probe_every = args.seconds / SETUP_PROBES as f64;
        let pass_start = Instant::now();
        let pass = timed_pass(
            &bench,
            &checker,
            Duration::from_secs_f64(args.seconds),
            1,
            |_| {
                let due = pass_start.elapsed().as_secs_f64() / probe_every;
                if setups.len() <= SETUP_PROBES && due >= setups.len() as f64 - 0.5 {
                    probe(&mut setups, &mut probe_error);
                }
            },
        );
        while setups.len() <= SETUP_PROBES && probe_error.is_none() {
            probe(&mut setups, &mut probe_error);
        }
        if let Some(err) = probe_error {
            return Err(err);
        }
        attempted += pass.attempted;
        failed += pass.failed;
        print_simulated(kind, &checker, &pass.seen);
        let ms: Vec<f64> = pass.totals.iter().map(|ns| ns / 1e6).collect();
        let (p50, p90) = (quantile(&ms, 0.5), quantile(&ms, 0.9));
        let setup_s = median(&setups);
        let rss = peak_rss_mb();
        println!(
            "calls: {} timed (1 warm-up), {} failed; {} items per call",
            pass.attempted,
            failed,
            bench.items()
        );
        println!(
            "call_ms: p10 {:.4}, p25 {:.4}, p50 {p50:.4}, p75 {:.4}, p90 {p90:.4}, max {:.4} over n={} calls",
            quantile(&ms, 0.1),
            quantile(&ms, 0.25),
            quantile(&ms, 0.75),
            quantile(&ms, 1.0),
            ms.len()
        );
        println!(
            "items_per_s: {:.1} over n={} calls",
            pass.items_per_s(),
            ms.len()
        );
        println!(
            "setup_s: {setup_s:.4}, median of n={} set-ups {setups:.4?}",
            setups.len()
        );
        println!("peak_rss_mb: {rss:.3}");
        metrics = vec![
            ("items_per_s", pass.items_per_s()),
            ("call_ms_p50", p50),
            ("call_ms_p90", p90),
            ("setup_s", setup_s),
            ("peak_rss_mb", rss),
        ];
        last = pass.last;
    }

    if let (Kind::CampaignResumable, Some((call, index))) = (kind, last) {
        attempted += 1;
        let reopened = bench.reopen_checkpoint(checker.seeds[index], call);
        match reopened.map(|(reran, summary)| {
            let output = Output::Campaign {
                summary,
                events: None,
            };
            (reran, checker.check(index, &output, bench.items()))
        }) {
            Ok((0, true)) => {
                println!("checkpoint reopen: no trials left to run, summary matches");
            }
            Ok((reran, _)) => {
                failed += 1;
                println!("checkpoint reopen: FAILED ({reran} trials re-ran or summary differs)");
            }
            Err(err) => {
                failed += 1;
                println!("checkpoint reopen: FAILED ({err})");
            }
        }
    }
    bench.remove_checkpoints();
    println!("{}", result_line(failed == 0, attempted, failed, &metrics));
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let knobs: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("REDUNDANCY_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set; they change the program being measured \
             (perfbench/run.py clears them)",
            knobs.join(", ")
        );
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    if args.regen {
        let path = bench_dir().join("references.tsv");
        return match std::fs::write(&path, refs::regenerate()) {
            Ok(()) => {
                eprintln!("perfbench: wrote {}", path.display());
                ExitCode::SUCCESS
            }
            Err(err) => {
                eprintln!("perfbench: cannot write {}: {err}", path.display());
                ExitCode::FAILURE
            }
        };
    }
    let kind = args.kind.expect("checked by parse_args");
    if args.references {
        let mut out = String::new();
        for k in std::iter::once(kind).chain(kind.baseline()) {
            refs::compute(&mut out, k, args.seed);
        }
        print!("{out}");
        return ExitCode::SUCCESS;
    }
    match run(&args, kind, started) {
        Ok(code) => code,
        Err(err) => {
            eprintln!("perfbench: {err}");
            ExitCode::FAILURE
        }
    }
}
