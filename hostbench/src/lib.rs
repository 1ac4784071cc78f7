//! Host-time benchmark of the CA-GVT engine.
//!
//! The engine simulates a cluster in virtual time; its users wait on host
//! time. This crate runs fixed PHOLD problems under the deterministic
//! virtual scheduler and measures that host time two ways:
//!
//! * a **plain run** ([`run_plain`]) builds and runs the cluster exactly as
//!   the harness does, timing only set-up and the scheduler run;
//! * a **traced run** ([`run_traced`]) wraps every actor, both GVT halves
//!   and the model in the timing forwarders of [`layers`], and attributes
//!   the host time to those layers.
//!
//! Every run is checked against the sequential reference simulator
//! ([`gate`]), and a traced run must reproduce the plain run's report
//! field for field ([`same_run`]).

pub mod layers;
pub mod metrics;

use cagvt_base::actor::Actor;
use cagvt_bench::{base_config, Scale, CA_HARNESS};
use cagvt_core::cluster::{build_cluster, build_shared, ClusterHandles};
use cagvt_core::seq::SeqOutcome;
use cagvt_core::{GvtBundle, RunReport, SequentialSim, SimConfig};
use cagvt_exec::{VirtualConfig, VirtualRunStats, VirtualScheduler};
use cagvt_gvt::{make_bundle, GvtKind};
use cagvt_models::phold::PholdModel;
use cagvt_models::presets::{comm_dominated, mixed_model};
use cagvt_net::MpiMode;
use layers::{ticks, Ledger, LedgerSink, TimedActor, TimedBundle, TimedModel};
use std::sync::Arc;
use std::time::Instant;

/// Workload seed used when none is given (the harness's own seed).
pub const DEFAULT_SEED: u64 = 0x1CC_2019;

/// Nodes of every workload's cluster.
pub const NODES: u16 = 4;

/// GVT interval of every workload, in events per worker (the paper's).
pub const GVT_INTERVAL: u64 = 25;

/// The benchmark's workloads: PHOLD on `Scale::default()` geometry
/// (4 nodes x 60 workers x 128 LPs, one dedicated MPI actor per node).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// COMM preset under Mattern GVT: dominated by idle polling and
    /// rollback.
    CommMattern,
    /// The same model under Barrier GVT: workers mostly blocked in the
    /// synchronous GVT, rollback nearly idle.
    CommBarrier,
    /// The Fig. 10 mixed 10-15 model under CA-GVT: the controller switches
    /// between synchronous and asynchronous rounds.
    MixedCa,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::CommMattern, Workload::CommBarrier, Workload::MixedCa];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CommMattern => "comm-mattern",
            Workload::CommBarrier => "comm-barrier",
            Workload::MixedCa => "mixed-ca",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn gvt(self) -> GvtKind {
        match self {
            Workload::CommMattern => GvtKind::Mattern,
            Workload::CommBarrier => GvtKind::Barrier,
            Workload::MixedCa => CA_HARNESS,
        }
    }

    /// Virtual end time: the run length, about half of `Scale::default()`'s
    /// 12.0 so one run takes a few host seconds and a measurement holds
    /// many. Each is long enough for the behaviour the workload was chosen
    /// for: Mattern's rollback share has reached that of the full run, and
    /// CA-GVT has run both synchronous and asynchronous rounds.
    pub fn end_time(self) -> f64 {
        match self {
            Workload::CommMattern | Workload::MixedCa => 6.0,
            Workload::CommBarrier => 8.0,
        }
    }
}

/// One fully specified simulation problem: model, configuration and GVT
/// algorithm.
#[derive(Clone, Debug)]
pub struct Problem {
    pub workload: Workload,
    pub gvt: GvtKind,
    pub cfg: SimConfig,
    pub model: PholdModel,
    /// Scheduler step valve: a run needing more steps is cut off and fails
    /// the gate instead of running on.
    pub max_steps: u64,
}

impl Problem {
    /// The benchmark problem of `workload` at `seed`.
    pub fn new(workload: Workload, seed: u64) -> Problem {
        let scale = Scale { end_time: workload.end_time(), seed, ..Scale::default() };
        Problem::at_scale(workload, &scale)
    }

    /// `workload` on another geometry (the self-tests use small ones).
    pub fn at_scale(workload: Workload, scale: &Scale) -> Problem {
        let cfg = base_config(NODES, MpiMode::Dedicated, GVT_INTERVAL, scale);
        let model = match workload {
            Workload::CommMattern | Workload::CommBarrier => comm_dominated(&cfg).model,
            Workload::MixedCa => mixed_model(&cfg, 10.0, 15.0).model,
        };
        Problem { workload, gvt: workload.gvt(), cfg, model, max_steps: 3_000_000_000 }
    }
}

/// The harness's scheduler safety valves with `p`'s step limit; a run that
/// hits one is reported incomplete and fails the gate.
fn valves(p: &Problem) -> VirtualConfig {
    VirtualConfig {
        max_steps: Some(p.max_steps),
        horizon: Some(cagvt_base::WallNs(900_000_000_000)),
        ..Default::default()
    }
}

/// Host seconds of one set-up, split at the engine's two builders.
#[derive(Clone, Copy, Debug)]
pub struct Setup {
    /// `build_shared`: engine state, fabric, GVT core.
    pub build_shared_s: f64,
    /// `make_bundle` plus `build_cluster`: workers, LPs, MPI actors and
    /// time-zero seeding (and, in a traced run, wrapping them).
    pub build_cluster_s: f64,
}

impl Setup {
    /// The set-up timed by instants before, between and after the builders.
    fn between(t0: Instant, t1: Instant, t2: Instant) -> Setup {
        Setup { build_shared_s: (t1 - t0).as_secs_f64(), build_cluster_s: (t2 - t1).as_secs_f64() }
    }

    pub fn total(&self) -> f64 {
        self.build_shared_s + self.build_cluster_s
    }
}

/// One measured run.
pub struct Run {
    pub setup: Setup,
    /// Host seconds of `VirtualScheduler::run`, including dropping the
    /// actors at its end.
    pub run_s: f64,
    /// Host seconds the thread waited on the OS run queue during the run.
    pub cpu_wait_s: f64,
    pub report: RunReport,
    /// Layer tallies and the seconds per tick (traced runs only).
    pub trace: Option<(Ledger, f64)>,
}

/// Time-stamps taken around one scheduler run.
struct Scheduled {
    stats: VirtualRunStats,
    run_s: f64,
    cpu_wait_s: f64,
    ticks: u64,
}

fn schedule(p: &Problem, actors: Vec<Box<dyn Actor>>) -> std::io::Result<Scheduled> {
    let wait0 = run_queue_wait_ns()?;
    let t0 = Instant::now();
    let c0 = ticks();
    let stats = VirtualScheduler::new(valves(p)).run(actors);
    let c1 = ticks();
    let run_s = t0.elapsed().as_secs_f64();
    let wait = run_queue_wait_ns()? - wait0;
    Ok(Scheduled { stats, run_s, cpu_wait_s: wait as f64 * 1e-9, ticks: (c1 - c0).max(1) })
}

/// A plain cluster of `p`, ready to run, and the time its set-up took.
struct Built {
    setup: Setup,
    bundle: Box<dyn GvtBundle>,
    actors: Vec<Box<dyn Actor>>,
    handles: ClusterHandles<PholdModel>,
}

fn build_plain(p: &Problem) -> Built {
    let t0 = Instant::now();
    let shared = build_shared(Arc::new(p.model.clone()), p.cfg);
    let t1 = Instant::now();
    let bundle = make_bundle(p.gvt, &shared);
    let (actors, handles) = build_cluster(shared, &*bundle);
    Built { setup: Setup::between(t0, t1, Instant::now()), bundle, actors, handles }
}

/// Build the cluster without running it; only the set-up is timed.
pub fn setup_only(p: &Problem) -> Setup {
    build_plain(p).setup
}

/// A run with nothing wrapped: what a user of the engine gets.
pub fn run_plain(p: &Problem) -> std::io::Result<Run> {
    let Built { setup, bundle, actors, handles } = build_plain(p);
    let s = schedule(p, actors)?;
    let report = RunReport::assemble(bundle.name(), &handles.shared, s.stats);
    Ok(Run { setup, run_s: s.run_s, cpu_wait_s: s.cpu_wait_s, report, trace: None })
}

/// A run with every actor, both GVT halves and the model wrapped in timing
/// forwarders.
pub fn run_traced(p: &Problem) -> std::io::Result<Run> {
    let sink = LedgerSink::default();
    let t0 = Instant::now();
    let model = Arc::new(TimedModel::new(p.model.clone()));
    let shared = build_shared(Arc::clone(&model), p.cfg);
    let t1 = Instant::now();
    let bundle = TimedBundle::new(make_bundle(p.gvt, &shared), Arc::clone(&sink));
    let (actors, handles) = build_cluster(shared, &bundle);
    // Workers come first (ActorId = worker index), then the MPI actors.
    let workers = p.cfg.spec.total_workers();
    let actors = actors
        .into_iter()
        .map(|a| {
            let is_mpi = a.id().0 >= workers;
            Box::new(TimedActor::new(a, is_mpi, Arc::clone(&sink))) as Box<dyn Actor>
        })
        .collect();
    let setup = Setup::between(t0, t1, Instant::now());
    let s = schedule(p, actors)?;
    let report = RunReport::assemble(bundle.name(), &handles.shared, s.stats);
    let mut ledger = *sink.lock().expect("no wrapper panicked while depositing");
    ledger.merge(&model.ledger());
    Ok(Run {
        setup,
        run_s: s.run_s,
        cpu_wait_s: s.cpu_wait_s,
        report,
        trace: Some((ledger, s.run_s / s.ticks as f64)),
    })
}

/// The sequential reference run of a problem and its host seconds.
pub struct Oracle {
    pub outcome: SeqOutcome,
    pub seconds: f64,
}

pub fn oracle(p: &Problem) -> Oracle {
    let t0 = Instant::now();
    let outcome = SequentialSim::new(Arc::new(p.model.clone()), p.cfg).run();
    Oracle { outcome, seconds: t0.elapsed().as_secs_f64() }
}

/// The oracle gate: the run completed, committed exactly the events the
/// sequential reference processed, and ended in the same LP states.
pub fn gate(r: &RunReport, o: &Oracle) -> Result<(), String> {
    if !r.completed {
        return Err("a scheduler safety valve cut the run off".into());
    }
    if r.committed != o.outcome.processed {
        return Err(format!(
            "committed {} but the oracle processed {}",
            r.committed, o.outcome.processed
        ));
    }
    if r.state_fingerprint != o.outcome.fingerprint {
        return Err(format!(
            "state fingerprint {:#x} differs from the oracle's {:#x}",
            r.state_fingerprint, o.outcome.fingerprint
        ));
    }
    Ok(())
}

/// Whether two reports agree on every field. Reports assembled here carry
/// no host time (`host_seconds` stays 0), so this compares exactly the
/// virtual results: counts, rounds, rates, fingerprint, scheduler steps.
pub fn same_run(a: &RunReport, b: &RunReport) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

/// Consistency of a traced run's ledger with its own report: the wrappers
/// saw every scheduler step, and nested times fit inside their parents.
pub fn check_ledger(run: &Run) -> Result<(), String> {
    let Some((l, _)) = &run.trace else { return Ok(()) };
    let r = &run.report;
    // Every problem here runs one dedicated MPI actor per node.
    let actors = r.nodes as u64 * (r.workers_per_node as u64 + 1);
    if l.actor_steps() != r.sched_steps {
        return Err(format!("wrappers saw {} steps, scheduler {}", l.actor_steps(), r.sched_steps));
    }
    // Idle spans also hold each actor's one final `Done` step.
    let idle = l.worker_idle.calls + l.mpi_idle.calls;
    if idle != r.sched_idle_steps + actors {
        return Err(format!(
            "wrappers saw {idle} idle/done steps, scheduler {} idle + {actors} done",
            r.sched_idle_steps
        ));
    }
    let worker = l.worker_progress.ticks + l.worker_idle.ticks;
    let nested = l.gvt_worker.ticks + l.model_handle.ticks + l.model_reverse.ticks;
    if nested > worker || l.gvt_mpi.ticks > l.mpi_busy.ticks + l.mpi_idle.ticks {
        return Err("a nested layer took longer than the steps containing it".into());
    }
    Ok(())
}

/// Run-queue wait of the calling thread so far, in nanoseconds
/// (`/proc/thread-self/schedstat`, second field).
fn run_queue_wait_ns() -> std::io::Result<u64> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat")?;
    text.split_whitespace()
        .nth(1)
        .and_then(|f| f.parse().ok())
        .ok_or_else(|| std::io::Error::other(format!("unexpected schedstat line: {text:?}")))
}

/// Peak resident memory of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> std::io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| std::io::Error::other("no VmHWM line in /proc/self/status"))
}
