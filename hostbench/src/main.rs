//! Run one benchmark workload and print its metrics.
//!
//! ```text
//! cagvt-hostbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Repeats the workload's problem (same seed, same inputs) until `--seconds`
//! have passed, checks every run against the sequential reference, and
//! prints as its last line one JSON object: with `--trace 0` the
//! end-to-end metrics of plain runs, with `--trace 1` the per-layer
//! metrics of traced runs (plain runs alternate with them, for the tracing
//! overhead).

use cagvt_hostbench::metrics::{end_to_end, json_line, per_layer};
use cagvt_hostbench::{
    check_ledger, gate, oracle, peak_rss_mib, run_plain, run_traced, same_run, setup_only, Problem,
    Run, Workload, DEFAULT_SEED,
};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: cagvt-hostbench --workload <comm-mattern|comm-barrier|mixed-ca> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Plain runs made however short `--seconds` is (with `--trace 1`, one
/// plain and one traced run).
const MIN_PLAIN_RUNS: usize = 3;

/// Set-up-only builds timed before each plain run (which times one more),
/// spreading the set-up samples over the whole measurement.
const EXTRA_SETUPS_PER_RUN: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 10.0, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("expected an unsigned integer"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("expected a positive number"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

fn bench(args: &Args) -> Result<String, String> {
    let io = |e: std::io::Error| e.to_string();
    let p = Problem::new(args.workload, args.seed);
    let budget = Duration::from_secs_f64(args.seconds);
    let min_runs = if args.trace { 1 } else { MIN_PLAIN_RUNS };
    let start = Instant::now();
    let (mut plain, mut traced): (Vec<Run>, Vec<Run>) = (Vec::new(), Vec::new());
    let mut setups = Vec::new();
    let mut round = Duration::ZERO;
    // Stop before a round that would overrun the budget, so an invocation
    // takes about `--seconds` whatever one run costs.
    while plain.len() < min_runs || start.elapsed() + round <= budget {
        let t0 = Instant::now();
        for _ in 0..EXTRA_SETUPS_PER_RUN {
            setups.push(setup_only(&p).total());
        }
        let run = run_plain(&p).map_err(io)?;
        setups.push(run.setup.total());
        plain.push(run);
        if args.trace {
            traced.push(run_traced(&p).map_err(io)?);
        }
        round = t0.elapsed();
    }
    // Read before the oracle run so the peak is the engine's alone.
    let rss = peak_rss_mib().map_err(io)?;
    let oracle = oracle(&p);

    let first = &plain[0].report;
    let mut failed = 0;
    for (i, run) in plain.iter().chain(&traced).enumerate() {
        let mut verdict = gate(&run.report, &oracle).and_then(|()| check_ledger(run));
        if verdict.is_ok() && !same_run(&run.report, first) {
            verdict = Err("report differs from the first plain run's".into());
        }
        if let Err(e) = verdict {
            eprintln!("run {i}: FAILED: {e}");
            failed += 1;
        }
    }

    println!(
        "# {} seed {:#x}: {} plain + {} traced runs, {} events committed per run, \
         oracle {} events",
        args.workload.name(),
        args.seed,
        plain.len(),
        traced.len(),
        first.committed,
        oracle.outcome.processed,
    );
    let metrics = if args.trace {
        println!(
            "# trace: every layer call counted and timed (no sampling), with the \
             time-stamp counter calibrated against Instant over each run"
        );
        per_layer(&plain, &traced, &oracle)
    } else {
        end_to_end(&plain, &setups, rss)
    };
    for x in &metrics {
        println!("#   {:<24} {:>16.6} {}", x.name, x.value, x.unit);
    }
    json_line(plain.len() + traced.len(), failed, &metrics)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cagvt-hostbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cagvt-hostbench: {e}");
            ExitCode::FAILURE
        }
    }
}
