//! The hook bundle a run carries.

use crate::fault::FaultInjector;
use crate::metrics::MetricsSink;
use crate::trace::TraceSink;
use std::fmt;
use std::sync::Arc;

/// Every hook installed on one run: a [`FaultInjector`] perturbing costs
/// and deliveries, a [`TraceSink`] and a [`MetricsSink`] observing it. Each
/// layer that consults a hook holds one `Hooks`; the `Default` value
/// installs none, which runs the cluster clean and unobserved.
#[derive(Clone, Default)]
pub struct Hooks {
    pub faults: Option<Arc<dyn FaultInjector>>,
    pub trace: Option<Arc<dyn TraceSink>>,
    pub metrics: Option<Arc<dyn MetricsSink>>,
}

impl fmt::Debug for Hooks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Hooks")
            .field("faults", &self.faults.is_some())
            .field("trace", &self.trace.is_some())
            .field("metrics", &self.metrics.is_some())
            .finish()
    }
}
