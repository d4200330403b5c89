//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <overload|churn|federation|placement> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. One process generates the workload's
//! inputs from `--seed`, measures for `--seconds`, checks every output
//! against a reference computed outside the timed region, and prints as
//! its last line one JSON object: `correct`, `attempted`, `failed`, and
//! the metrics `BENCHMARK.json` declares — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Lines before it
//! are for people.
//!
//! End-to-end throughput is counted per *reference second* (twenty runs
//! of [`stats::reference_kernel`], timed next to every call), so that the
//! machine's own speed swings cancel out; wall-clock rates are printed
//! alongside. Per-layer times are wall-clock milliseconds, with the
//! kernel's time at that moment as `reference.kernel_ms`.

mod campaign;
mod federation;
mod placement;
mod report;
mod spec;
mod stats;

use campaign::Loop;
use report::RunReport;
use spec::Spec;
use std::process::ExitCode;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["overload", "churn", "federation", "placement"];

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Worker threads for every pool the benchmark drives — the batched
/// loop's workers and the `parallel` pool: one core fewer than the
/// machine has, and at least one. The core left over absorbs the
/// system's own work; on a two-core machine a second worker made call
/// times spread four to eight times wider between runs.
fn worker_threads(nproc: usize) -> usize {
    nproc.saturating_sub(1).max(1)
}

fn run(args: &Args, threads: usize) -> RunReport {
    let (seed, secs) = (args.seed, args.seconds);
    let mut report = match (args.workload.as_str(), args.trace) {
        ("overload", false) => campaign::measure(
            campaign::overload_config,
            Loop::Batched,
            seed,
            secs,
            threads,
        ),
        ("overload", true) => campaign::trace(
            campaign::overload_config,
            Loop::Batched,
            seed,
            secs,
            threads,
        ),
        ("churn", false) => {
            campaign::measure(campaign::churn_config, Loop::Serial, seed, secs, threads)
        }
        ("churn", true) => {
            campaign::trace(campaign::churn_config, Loop::Serial, seed, secs, threads)
        }
        ("federation", false) => federation::measure(seed, secs),
        ("federation", true) => federation::trace(seed, secs),
        ("placement", false) => placement::measure(seed, secs),
        ("placement", true) => placement::trace(seed, secs),
        _ => unreachable!("workload names are checked while parsing"),
    };
    if args.trace {
        // The machine's speed when the layer times were taken.
        let kernel_ms: Vec<f64> = (0..5)
            .map(|_| stats::timed(stats::reference_kernel).1 * 1e3)
            .collect();
        report.set("reference.kernel_ms", stats::median(&kernel_ms));
    }
    report
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = Spec::load();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = worker_threads(nproc);
    // Set before any thread starts; the `parallel` pool reads it.
    std::env::set_var("UBIQOS_THREADS", threads.to_string());
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={nproc} \
         UBIQOS_THREADS={} pipeline_threads={threads} profile={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        ubiqos_parallel::thread_count(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );

    let report = run(&args, threads);
    for line in &report.notes {
        println!("{line}");
    }
    println!(
        "failed_share = {} ({} of {} operations failed a check)",
        stats::share(report.failed as f64, report.attempted as f64),
        report.failed,
        report.attempted
    );
    for (name, unit) in spec.metrics(args.trace) {
        if let Some((_, v)) = report.metrics.iter().find(|(n, _)| n == name) {
            println!("{name} = {v} {unit}");
        }
    }
    match report.result_line(&spec, args.trace) {
        Ok(line) if report.attempted > 0 => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Ok(_) => {
            eprintln!("perfbench: no operation was attempted");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv("--workload churn --seed 7 --seconds 12 --trace 1")).unwrap();
        assert_eq!(
            a,
            Args {
                workload: "churn".into(),
                seed: 7,
                seconds: 12.0,
                trace: true
            }
        );
    }

    #[test]
    fn pools_stay_below_the_core_count() {
        assert_eq!(worker_threads(1), 1);
        assert_eq!(worker_threads(2), 1);
        assert_eq!(worker_threads(16), 15);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope",
            "--workload churn --trace 2",
            "--workload churn --seconds 0",
            "--workload churn --seed",
            "--workload churn --bogus 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
