//! Self-tests of the benchmark: the timing wrappers change nothing the
//! engine computes, the oracle gate holds at two seeds and rejects bad
//! runs, and `BENCHMARK.json` declares every metric the binary prints.

use cagvt_base::actor::Actor;
use cagvt_bench::Scale;
use cagvt_core::cluster::{build_cluster, build_shared};
use cagvt_gvt::{make_bundle, GvtKind};
use cagvt_hostbench::layers::{LedgerSink, TimedActor};
use cagvt_hostbench::metrics::{end_to_end, per_layer, Metric};
use cagvt_hostbench::{
    check_ledger, gate, oracle, run_plain, run_traced, same_run, Problem, Run, Workload,
    DEFAULT_SEED,
};

/// A geometry small enough for a debug build, with the workload's
/// algorithm, model and node count unchanged. Its step valve makes a
/// wrapper that breaks termination fail the gate instead of hanging (these
/// runs take well under a million steps).
fn small(workload: Workload, seed: u64) -> Problem {
    let scale = Scale { workers_per_node: 6, lps_per_worker: 16, end_time: 6.0, seed };
    Problem { max_steps: 5_000_000, ..Problem::at_scale(workload, &scale) }
}

/// Run `p` plain and traced; both must pass the gate, agree on every report
/// field, and the traced ledger must account for every scheduler step.
fn plain_and_traced(p: &Problem) -> (Run, Run) {
    let plain = run_plain(p).expect("plain run");
    let traced = run_traced(p).expect("traced run");
    let o = oracle(p);
    let label = format!("{} {:?}", p.workload.name(), p.gvt);
    gate(&plain.report, &o).unwrap_or_else(|e| panic!("{label} plain: {e}"));
    gate(&traced.report, &o).unwrap_or_else(|e| panic!("{label} traced: {e}"));
    check_ledger(&traced).unwrap_or_else(|e| panic!("{label} ledger: {e}"));
    assert!(
        same_run(&plain.report, &traced.report),
        "{label}: wrapped run differs\nplain:  {:?}\ntraced: {:?}",
        plain.report,
        traced.report
    );
    (plain, traced)
}

#[test]
fn wrapped_runs_match_plain_runs_and_the_oracle_at_two_seeds() {
    for seed in [DEFAULT_SEED, 2] {
        for w in Workload::ALL {
            let (plain, traced) = plain_and_traced(&small(w, seed));
            assert!(
                plain.report.sched_steps < 1_000_000,
                "valve too close: {}",
                plain.report.sched_steps
            );
            let (l, tick_s) = traced.trace.expect("traced run has a ledger");
            assert!(tick_s > 0.0);
            assert!(l.model_handle.calls > 0 && l.gvt_worker_steps > 0 && l.gvt_mpi.calls > 0);
        }
    }
}

#[test]
fn timed_actor_keeps_identity_and_label() {
    let p = small(Workload::CommMattern, DEFAULT_SEED);
    let shared = build_shared(std::sync::Arc::new(p.model.clone()), p.cfg);
    let (actors, _) = build_cluster(shared.clone(), &*make_bundle(p.gvt, &shared));
    for a in actors {
        let (id, label) = (a.id(), a.label());
        let timed = TimedActor::new(a, false, LedgerSink::default());
        assert_eq!((timed.id(), timed.label()), (id, label));
    }
}

#[test]
fn samadi_run_forwards_the_default_ack_methods() {
    // Samadi is the one algorithm that overrides `wants_acks`, `mark_acks`,
    // `on_send_tracked` and `on_ack`; a wrapper falling back to the trait
    // defaults would send no acks and diverge.
    let mut p = small(Workload::CommMattern, DEFAULT_SEED);
    p.gvt = GvtKind::Samadi;
    let (plain, _) = plain_and_traced(&p);
    assert!(plain.report.acks_sent > 0, "Samadi must acknowledge messages");
}

#[test]
fn forced_snapshot_run_never_calls_reverse() {
    let mut p = small(Workload::CommMattern, DEFAULT_SEED);
    p.cfg.force_snapshot = true;
    let (plain, traced) = plain_and_traced(&p);
    let (l, _) = traced.trace.expect("ledger");
    assert!(plain.report.rolled_back > 0, "the run must roll back to exercise snapshots");
    assert_eq!(l.model_reverse.calls, 0);

    // And the default strategy does reverse (PHOLD supports it).
    let (_, traced) = plain_and_traced(&small(Workload::CommMattern, DEFAULT_SEED));
    assert!(traced.trace.expect("ledger").0.model_reverse.calls > 0);
}

#[test]
fn gate_rejects_wrong_results_and_cut_off_runs() {
    let p = small(Workload::CommBarrier, DEFAULT_SEED);
    let run = run_plain(&p).expect("plain run");
    let o = oracle(&p);
    assert!(gate(&run.report, &o).is_ok());

    let mut bad = run.report.clone();
    bad.state_fingerprint ^= 1;
    assert!(gate(&bad, &o).is_err());
    let mut bad = run.report.clone();
    bad.committed -= 1;
    assert!(gate(&bad, &o).is_err());
    let mut bad = run.report.clone();
    bad.completed = false;
    assert!(gate(&bad, &o).is_err());
    assert!(!same_run(&bad, &run.report));
}

#[test]
fn benchmark_json_declares_every_metric_with_its_unit() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let p = small(Workload::MixedCa, DEFAULT_SEED);
    let (plain, traced) = plain_and_traced(&p);
    let plain = [plain];
    let traced = [traced];
    let metrics: Vec<Metric> = end_to_end(&plain, &[0.01], 1.0)
        .into_iter()
        .chain(per_layer(&plain, &traced, &oracle(&p)))
        .collect();
    for x in &metrics {
        let decl = format!("\"name\": \"{}\", \"unit\": \"{}\"", x.name, x.unit);
        assert!(json.contains(&decl), "BENCHMARK.json lacks {decl}");
    }
    assert_eq!(json.matches("\"unit\":").count(), metrics.len(), "undeclared extra metrics");
    for w in Workload::ALL {
        assert!(json.contains(&format!("\"name\": \"{}\"", w.name())), "workload {}", w.name());
    }
}

#[test]
fn traced_times_add_up_to_the_traced_run() {
    let p = small(Workload::CommMattern, DEFAULT_SEED);
    let (plain, traced) = plain_and_traced(&p);
    let metrics = per_layer(&[plain], &[traced], &oracle(&p));
    let get = |n: &str| metrics.iter().find(|m| m.name == n).expect(n).value;
    let parts =
        get("sched.self_s") + get("worker.progress_s") + get("worker.idle_s") + get("mpi.step_s");
    assert!((parts - get("trace.run_s")).abs() <= 1e-9 * get("trace.run_s").max(1.0));
    assert!(get("sched.self_s") >= 0.0 && get("worker.self_s") >= 0.0);
}
