//! Regenerate the paper's figures and tables as CSV.
//!
//! ```text
//! figures [all | <mode>...] [--paper] [--bench-scale] [--out DIR]
//! figures summarize [DIR]
//! ```
//!
//! An unknown mode name prints the full mode list and runs nothing. Default
//! scale keeps the paper's 60-workers-per-node shape with a reduced LP
//! count and horizon; `--paper` runs the full 128-LPs-per-worker geometry
//! (slow). Rows print to stdout; with `--out DIR` each figure is
//! additionally written to `DIR/<figure>.csv`.
//!
//! Sweeps run on `CAGVT_SWEEP_THREADS` OS threads (default: one per host
//! core; `1` is the serial runner — row order is identical either way).
//! Each mode's wall-clock goes to stderr; host-time measurement proper is
//! the separate `hostbench` package.

use cagvt_bench::{
    base_config, ca_queue, epg_sweep, fault_sweep, fig10, fig11, fig12, fig3, fig4, fig5, fig6,
    fig8, fig9, health_experiment, interval_sweep, mpi_modes, run_one, samadi, stats_table,
    sweep_threads, threshold_sweep, trace_experiment, Row, Scale,
};
use cagvt_models::presets::comm_dominated;
use cagvt_net::MpiMode;
use std::io::Write;
use std::path::Path;

fn ca_trace(scale: &Scale) -> Vec<Row> {
    // §6 text: CA-GVT's sync/async mode trace on the communication-
    // dominated workload.
    let nodes = 8;
    let cfg = base_config(nodes, MpiMode::Dedicated, 25, scale);
    let workload = comm_dominated(&cfg);
    let report = run_one(cagvt_bench::CA_HARNESS, &workload, cfg);
    eprintln!(
        "# ca-trace: {} rounds total, {} synchronous, {} asynchronous, final efficiency {:.2}%",
        report.gvt_rounds,
        report.sync_rounds,
        report.async_rounds,
        report.efficiency * 100.0
    );
    vec![Row { figure: "ca-trace", series: "ca-gvt".into(), nodes, report }]
}

/// One runnable experiment mode.
struct Mode {
    name: &'static str,
    /// Included in the default run and in `all` (ablations stay opt-in).
    core: bool,
    /// Runs the mode at a scale; modes with exporters also write their
    /// files to the `--out` directory.
    run: fn(&Scale, Option<&Path>) -> Vec<Row>,
}

/// The single source of truth for every mode the binary knows: the
/// dispatcher, the `all` expansion and the unknown-mode listing all read
/// this table.
const MODES: &[Mode] = &[
    Mode { name: "fig3", core: true, run: |s, _| fig3(s) },
    Mode { name: "fig4", core: true, run: |s, _| fig4(s) },
    Mode { name: "fig5", core: true, run: |s, _| fig5(s) },
    Mode { name: "fig6", core: true, run: |s, _| fig6(s) },
    Mode { name: "fig8", core: true, run: |s, _| fig8(s) },
    Mode { name: "fig9", core: true, run: |s, _| fig9(s) },
    Mode { name: "fig10", core: true, run: |s, _| fig10(s) },
    Mode { name: "fig11", core: true, run: |s, _| fig11(s) },
    Mode { name: "fig12", core: true, run: |s, _| fig12(s) },
    Mode { name: "stats", core: true, run: |s, _| stats_table(s) },
    Mode { name: "epg-sweep", core: true, run: |s, _| epg_sweep(s) },
    Mode { name: "ca-trace", core: true, run: |s, _| ca_trace(s) },
    Mode { name: "threshold-sweep", core: false, run: |s, _| threshold_sweep(s) },
    Mode { name: "ca-queue", core: false, run: |s, _| ca_queue(s) },
    Mode { name: "samadi", core: false, run: |s, _| samadi(s) },
    Mode { name: "interval-sweep", core: false, run: |s, _| interval_sweep(s) },
    Mode { name: "mpi-modes", core: false, run: |s, _| mpi_modes(s) },
    Mode { name: "faults", core: false, run: |s, _| fault_sweep(s) },
    Mode { name: "trace", core: false, run: trace_experiment },
    Mode { name: "health", core: false, run: health_experiment },
];

fn find_mode(name: &str) -> Option<&'static Mode> {
    MODES.iter().find(|m| m.name == name)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::default();
    let mut out_dir: Option<String> = None;
    let mut selected: Vec<String> = Vec::new();

    // `figures summarize [DIR]` prints the paper-vs-measured headline
    // table from previously generated CSVs.
    if args.first().map(|s| s.as_str()) == Some("summarize") {
        let dir = args.get(1).cloned().unwrap_or_else(|| "results".to_string());
        match cagvt_bench::summary::summarize(std::path::Path::new(&dir)) {
            Ok(text) => print!("{text}"),
            Err(e) => {
                eprintln!("summarize failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--paper" => scale = Scale::paper(),
            "--bench-scale" => scale = Scale::bench(),
            "--out" => {
                match it.next() {
                    Some(dir) => out_dir = Some(dir.clone()),
                    None => {
                        eprintln!("--out needs a directory");
                        eprintln!("usage: figures [all | <mode>...] [--paper] [--bench-scale] [--out DIR]");
                        std::process::exit(2);
                    }
                }
            }
            other => selected.push(other.to_string()),
        }
    }
    // "all" expands to every paper experiment (ablations stay opt-in but
    // can be combined with it on the same command line).
    let core_set: Vec<String> =
        MODES.iter().filter(|m| m.core).map(|m| m.name.to_string()).collect();
    if selected.is_empty() {
        selected = core_set;
    } else if selected.iter().any(|s| s == "all") {
        let tail: Vec<String> = selected.iter().filter(|s| *s != "all").cloned().collect();
        selected = core_set;
        for t in tail {
            if !selected.contains(&t) {
                selected.push(t);
            }
        }
    }

    // Every mode is checked before any runs.
    let mut modes = Vec::with_capacity(selected.len());
    for name in &selected {
        let Some(mode) = find_mode(name) else {
            eprintln!("unknown experiment: {name}");
            let names: Vec<&str> = MODES.iter().map(|m| m.name).collect();
            eprintln!("available modes: all {}", names.join(" "));
            std::process::exit(2);
        };
        modes.push(mode);
    }
    let out = out_dir.as_deref().map(Path::new);
    if let Some(dir) = out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create output directory {}: {e}", dir.display());
            std::process::exit(1);
        }
    }

    eprintln!("# sweep threads: {}", sweep_threads());

    println!("{}", Row::csv_header());
    for mode in modes {
        let name = mode.name;
        let t0 = std::time::Instant::now();
        let rows = (mode.run)(&scale, out);
        let wall_s = t0.elapsed().as_secs_f64();
        for row in &rows {
            println!("{}", row.csv());
        }
        eprintln!("# {name}: {} rows in {wall_s:.1}s", rows.len());
        if let Some(dir) = out {
            let mut f =
                std::fs::File::create(dir.join(format!("{name}.csv"))).expect("create figure csv");
            writeln!(f, "{}", Row::csv_header()).unwrap();
            for row in &rows {
                writeln!(f, "{}", row.csv()).unwrap();
            }
        }
    }
}
