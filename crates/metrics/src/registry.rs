//! The concrete [`MetricsSink`]: an in-memory epoch store with optional
//! per-epoch file exporters.
//!
//! Export discipline matches `cagvt-trace`'s sinks: everything is
//! file-based (no sockets — the build environment is offline and the
//! virtual cluster has no real network), writes happen inside the sink
//! call and are therefore virtual-time-neutral, and nothing ever flows
//! back into engine state. CSV and JSONL are appended one line per epoch;
//! the Prometheus exposition is a *snapshot* rewritten atomically-enough
//! (single `write`) each round so a textfile-collector-style scraper
//! always reads the latest epoch.

use cagvt_base::metrics::{barrier_label, MetricsEpoch, MetricsSink};
use cagvt_base::WallNs;
use parking_lot::Mutex;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::epoch_csv::{epoch_csv_header, epoch_csv_row, epoch_jsonl_row};
use crate::prometheus::prometheus_exposition;

#[derive(Debug, Default)]
struct Inner {
    epochs: Vec<MetricsEpoch>,
    csv: Option<fs::File>,
    jsonl: Option<fs::File>,
    prom_path: Option<PathBuf>,
}

/// In-memory metrics registry and exporter front-end. Construct, chain
/// `with_*` exporters, wrap in an `Arc` and hand it to the engine as its
/// `MetricsSink` (e.g. as `Hooks::metrics`); read the recorded
/// series back with [`MetricsRegistry::epochs`] after the run.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    /// Labels stamped on every Prometheus sample (and the ticker prefix).
    labels: Vec<(String, String)>,
    ticker: bool,
    inner: Mutex<Inner>,
}

impl MetricsRegistry {
    /// In-memory-only registry (no exporters, no ticker).
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach a label stamped on every exported Prometheus sample
    /// (typically `algorithm`, `nodes`, `workers`, `workload`).
    pub fn with_label(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.labels.push((key.into(), value.into()));
        self
    }

    /// Append one tidy-CSV line per epoch to `path` (truncates and writes
    /// the header immediately).
    pub fn with_csv(self, path: impl AsRef<Path>) -> std::io::Result<Self> {
        let mut f = fs::File::create(path)?;
        writeln!(f, "{}", epoch_csv_header())?;
        self.inner.lock().csv = Some(f);
        Ok(self)
    }

    /// Append one JSON object per epoch to `path` (truncates).
    pub fn with_jsonl(self, path: impl AsRef<Path>) -> std::io::Result<Self> {
        let f = fs::File::create(path)?;
        self.inner.lock().jsonl = Some(f);
        Ok(self)
    }

    /// Rewrite a Prometheus text exposition of the latest epoch at `path`
    /// after every publication.
    pub fn with_prometheus(self, path: impl AsRef<Path>) -> Self {
        self.inner.lock().prom_path = Some(path.as_ref().to_path_buf());
        self
    }

    /// Print a one-line stderr ticker per epoch (off by default; for
    /// watching long harness runs live).
    pub fn with_ticker(mut self) -> Self {
        self.ticker = true;
        self
    }

    /// Snapshot of the recorded series so far.
    pub fn epochs(&self) -> Vec<MetricsEpoch> {
        self.inner.lock().epochs.clone()
    }

    /// Number of epochs recorded so far.
    pub fn len(&self) -> usize {
        self.inner.lock().epochs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn ticker_line(&self, e: &MetricsEpoch) -> String {
        let who = self
            .labels
            .iter()
            .find(|(k, _)| k == "algorithm")
            .map(|(_, v)| v.as_str())
            .unwrap_or("run");
        format!(
            "[metrics {who}] round {:>4} gvt {:>10.3} eff {:.3} horizon {:.3} \
             mode {} barriers {} cause {}",
            e.round,
            e.gvt,
            e.efficiency_window,
            e.horizon_width,
            e.mode.label(),
            barrier_label(e.barriers),
            e.cause.label(),
        )
    }
}

impl MetricsSink for MetricsRegistry {
    fn on_epoch(&self, _t: WallNs, epoch: &MetricsEpoch) {
        let mut inner = self.inner.lock();
        inner.epochs.push(epoch.clone());
        // Export failures are swallowed: observation must never abort the
        // run it observes (same contract as the trace sinks).
        if let Some(f) = inner.csv.as_mut() {
            let _ = writeln!(f, "{}", epoch_csv_row(epoch));
        }
        if let Some(f) = inner.jsonl.as_mut() {
            let _ = writeln!(f, "{}", epoch_jsonl_row(epoch));
        }
        if let Some(path) = inner.prom_path.clone() {
            let _ = fs::write(path, prometheus_exposition(epoch, &self.labels));
        }
        drop(inner);
        if self.ticker {
            eprintln!("{}", self.ticker_line(epoch));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prometheus::parse_exposition;
    use cagvt_base::metrics::{EpochMode, SyncCause, BARRIER_A};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch_dir() -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "cagvt-metrics-registry-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn epoch(round: u64) -> MetricsEpoch {
        MetricsEpoch {
            round,
            t: WallNs(round * 100),
            gvt: round as f64 * 2.0,
            committed_delta: 10 * round,
            rolled_back_delta: round,
            efficiency_window: 0.9,
            worker_lag: vec![0.5, 1.5],
            mpi_queue_depths: vec![round],
            mpi_queue_max: round,
            mode: EpochMode::Sync,
            barriers: BARRIER_A,
            cause: SyncCause::Efficiency,
            ..MetricsEpoch::default()
        }
    }

    #[test]
    fn registry_records_epochs_in_order() {
        let reg = MetricsRegistry::new();
        assert!(reg.is_empty());
        reg.on_epoch(WallNs(1), &epoch(1));
        reg.on_epoch(WallNs(2), &epoch(2));
        assert_eq!(reg.len(), 2);
        let es = reg.epochs();
        assert_eq!(es[0].round, 1);
        assert_eq!(es[1].round, 2);
        assert!(reg.enabled(), "a live registry reports enabled");
    }

    #[test]
    fn file_exporters_write_per_epoch() {
        let dir = scratch_dir();
        let csv_path = dir.join("epochs.csv");
        let jsonl_path = dir.join("epochs.jsonl");
        let prom_path = dir.join("latest.prom");
        let reg = MetricsRegistry::new()
            .with_label("algorithm", "ca-gvt")
            .with_csv(&csv_path)
            .unwrap()
            .with_jsonl(&jsonl_path)
            .unwrap()
            .with_prometheus(&prom_path);
        reg.on_epoch(WallNs(1), &epoch(1));
        reg.on_epoch(WallNs(2), &epoch(2));

        let csv = fs::read_to_string(&csv_path).unwrap();
        let lines: Vec<_> = csv.lines().collect();
        assert_eq!(lines.len(), 3, "header + 2 epochs: {csv}");
        assert_eq!(lines[0], epoch_csv_header());
        assert!(lines[2].starts_with("2,200,4,"), "row: {}", lines[2]);

        let jsonl = fs::read_to_string(&jsonl_path).unwrap();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.lines().nth(1).unwrap().contains("\"round\":2"));

        // The Prometheus file is a snapshot of the *latest* epoch only.
        let prom = fs::read_to_string(&prom_path).unwrap();
        let samples = parse_exposition(&prom).expect("snapshot must parse");
        let round = samples.iter().find(|s| s.name == "cagvt_gvt_round").unwrap();
        assert_eq!(round.value, 2.0);
        assert_eq!(round.label("algorithm"), Some("ca-gvt"));

        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ticker_line_summarizes_the_controller_decision() {
        let reg = MetricsRegistry::new().with_label("algorithm", "ca-gvt").with_ticker();
        let line = reg.ticker_line(&epoch(7));
        assert!(line.contains("[metrics ca-gvt]"), "line: {line}");
        assert!(line.contains("mode sync"), "line: {line}");
        assert!(line.contains("cause efficiency"), "line: {line}");
    }
}
