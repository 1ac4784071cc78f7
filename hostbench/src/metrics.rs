//! The benchmark's metrics, computed from measured runs, and the JSON
//! result line.

use crate::layers::Ledger;
use crate::{Oracle, Run};

/// One reported number.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Median of `values` (mean of the middle two for an even count; 0 for
/// none).
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

/// End-to-end metrics of the plain runs: what a user of the engine sees.
pub fn end_to_end(plain: &[Run], setups: &[f64], peak_rss_mib: f64) -> Vec<Metric> {
    let rates = plain.iter().map(|r| r.report.committed as f64 / r.run_s);
    vec![
        m("events_per_s", median(rates), "1/s"),
        m("setup_s", median(setups.iter().copied()), "s"),
        m("peak_rss_mib", peak_rss_mib, "MiB"),
        m("sim_event_rate", plain[0].report.committed_rate, "1/s"),
    ]
}

/// Per-layer metrics. Times come from the traced run of median length, so
/// they add up within that run: `sched.self_s + worker.progress_s +
/// worker.idle_s + mpi.step_s == trace.run_s`. Counts are exact and equal
/// in every run.
pub fn per_layer(plain: &[Run], traced: &[Run], oracle: &Oracle) -> Vec<Metric> {
    let mut by_time: Vec<&Run> = traced.iter().collect();
    by_time.sort_by(|a, b| a.run_s.total_cmp(&b.run_s));
    let t = by_time[(by_time.len() - 1) / 2];
    let (l, tick_s): (Ledger, f64) = t.trace.expect("traced runs carry a ledger");
    let s = |ticks: u64| ticks as f64 * tick_s;
    let r = &t.report;

    let worker_ticks = l.worker_progress.ticks + l.worker_idle.ticks;
    let nested = l.gvt_worker.ticks + l.model_handle.ticks + l.model_reverse.ticks;
    let mpi_ticks = l.mpi_busy.ticks + l.mpi_idle.ticks;
    let mpi_steps = l.mpi_busy.calls + l.mpi_idle.calls;
    let plain_run_s = median(plain.iter().map(|p| p.run_s));
    let seq = oracle.outcome.processed;

    vec![
        m("sched.self_s", t.run_s - s(l.actor_ticks()), "s"),
        m("sched.steps", r.sched_steps as f64, "count"),
        m("sched.steps_per_event", ratio(r.sched_steps, r.committed), "steps/event"),
        m("sched.idle_share", ratio(r.sched_idle_steps, r.sched_steps), "ratio"),
        m("sched.cpu_wait_s", t.cpu_wait_s, "s"),
        m("worker.progress_s", s(l.worker_progress.ticks), "s"),
        m("worker.progress_steps", l.worker_progress.calls as f64, "count"),
        m("worker.idle_s", s(l.worker_idle.ticks), "s"),
        m("worker.idle_steps", l.worker_idle.calls as f64, "count"),
        m("worker.self_s", s(worker_ticks - nested), "s"),
        m("gvt.worker_s", s(l.gvt_worker.ticks), "s"),
        m("gvt.worker_steps", l.gvt_worker_steps as f64, "count"),
        m("gvt.blocked_share", ratio(l.gvt_blocked, l.gvt_worker_steps), "ratio"),
        m("gvt.mpi_s", s(l.gvt_mpi.ticks), "s"),
        m("gvt.rounds", r.gvt_rounds as f64, "count"),
        m("gvt.sync_rounds", r.sync_rounds as f64, "count"),
        m("gvt.async_rounds", r.async_rounds as f64, "count"),
        m("mpi.step_s", s(mpi_ticks), "s"),
        m("mpi.steps", mpi_steps as f64, "count"),
        m("mpi.idle_share", ratio(l.mpi_idle.calls, mpi_steps), "ratio"),
        m("mpi.remote_msgs", r.sent_remote as f64, "count"),
        m("model.handle_s", s(l.model_handle.ticks), "s"),
        m("model.handle_calls", l.model_handle.calls as f64, "count"),
        m("model.reverse_s", s(l.model_reverse.ticks), "s"),
        m("model.reverse_calls", l.model_reverse.calls as f64, "count"),
        m("lp.efficiency", ratio(r.committed, r.processed), "ratio"),
        m("lp.rolled_back", r.rolled_back as f64, "count"),
        m("lp.rollbacks", r.rollbacks as f64, "count"),
        m("lp.annihilated", r.annihilated as f64, "count"),
        m("setup.build_shared_s", median(plain.iter().map(|p| p.setup.build_shared_s)), "s"),
        m("setup.build_cluster_s", median(plain.iter().map(|p| p.setup.build_cluster_s)), "s"),
        m("seq.events_per_s", seq as f64 / oracle.seconds, "1/s"),
        m("seq.s", oracle.seconds, "s"),
        m("trace.run_s", t.run_s, "s"),
        m("trace.overhead", t.run_s / plain_run_s, "ratio"),
    ]
}

/// The result line: `{"correct": .., "attempted": .., "failed": ..,
/// "metrics": {name: {"value": .., "unit": ..}, ..}}`. Fails on a value
/// JSON cannot carry.
pub fn json_line(attempted: usize, failed: usize, metrics: &[Metric]) -> Result<String, String> {
    let mut body = Vec::with_capacity(metrics.len());
    for x in metrics {
        if !x.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", x.name, x.value));
        }
        body.push(format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", x.name, x.value, x.unit));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    ))
}
