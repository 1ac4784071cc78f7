//! Forwarding wrappers that time calls into each engine layer from outside
//! the engine.
//!
//! Every wrapper forwards every trait method, default methods included, to
//! the value it wraps, and adds nothing to what the engine sees: a wrapped
//! run charges the same virtual costs and reaches the same results as an
//! unwrapped one (the fidelity tests check this field by field).
//!
//! Every call is counted and every call is timed. Timing uses the CPU's
//! time-stamp counter on x86-64 (about a quarter of the cost of an
//! `Instant` pair, which matters against sub-microsecond idle polls) and
//! is converted to seconds per run by calibrating the counter against
//! `Instant` over the whole scheduler run.
//!
//! Per-actor wrappers keep plain local tallies and add them to a shared
//! [`Ledger`] when the scheduler drops the actors at the end of the run, so
//! the hot path takes no lock and no atomic.

use cagvt_base::actor::{Actor, StepOutcome, StepResult};
use cagvt_base::ids::{ActorId, EventId, LaneId, LpId, NodeId};
use cagvt_base::rng::Pcg32;
use cagvt_base::time::{VirtualTime, WallNs};
use cagvt_core::gvt::{GvtBundle, MpiGvt, WorkerGvt, WorkerGvtCtx, WorkerGvtOutcome};
use cagvt_core::model::{Emitter, EventCtx, Model};
use cagvt_net::MsgClass;
use std::cell::Cell;
use std::ops::AddAssign;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Current tick count: the time-stamp counter on x86-64 (invariant on
/// hosts that report `constant_tsc`), nanoseconds since first use
/// elsewhere.
#[inline]
pub fn ticks() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: `rdtsc` reads a counter register; it has no memory
        // effects and every x86-64 CPU implements it.
        unsafe { core::arch::x86_64::_rdtsc() }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        use std::sync::OnceLock;
        use std::time::Instant;
        static BASE: OnceLock<Instant> = OnceLock::new();
        BASE.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// Calls into one layer and the ticks they took.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Span {
    pub calls: u64,
    pub ticks: u64,
}

impl Span {
    #[inline]
    fn record(&mut self, ticks: u64) {
        self.calls += 1;
        self.ticks += ticks;
    }
}

impl AddAssign for Span {
    fn add_assign(&mut self, o: Span) {
        self.calls += o.calls;
        self.ticks += o.ticks;
    }
}

/// Everything one traced run recorded, in ticks and exact call counts.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ledger {
    /// Worker `Actor::step` calls that made progress.
    pub worker_progress: Span,
    /// Worker `Actor::step` calls that were idle polls (or the final done).
    pub worker_idle: Span,
    /// MPI actor `Actor::step` calls that made progress.
    pub mpi_busy: Span,
    /// MPI actor `Actor::step` calls that were idle polls (or the final done).
    pub mpi_idle: Span,
    /// Every `WorkerGvt` call (step, send/receive accounting, acks).
    pub gvt_worker: Span,
    /// `WorkerGvt::step` calls.
    pub gvt_worker_steps: u64,
    /// `WorkerGvt::step` calls that returned `Blocked`.
    pub gvt_blocked: u64,
    /// `MpiGvt::step` calls.
    pub gvt_mpi: Span,
    /// `Model::handle` calls.
    pub model_handle: Span,
    /// `Model::reverse` calls.
    pub model_reverse: Span,
}

impl Ledger {
    pub fn merge(&mut self, o: &Ledger) {
        self.worker_progress += o.worker_progress;
        self.worker_idle += o.worker_idle;
        self.mpi_busy += o.mpi_busy;
        self.mpi_idle += o.mpi_idle;
        self.gvt_worker += o.gvt_worker;
        self.gvt_worker_steps += o.gvt_worker_steps;
        self.gvt_blocked += o.gvt_blocked;
        self.gvt_mpi += o.gvt_mpi;
        self.model_handle += o.model_handle;
        self.model_reverse += o.model_reverse;
    }

    /// Ticks spent inside any `Actor::step`.
    pub fn actor_ticks(&self) -> u64 {
        self.worker_progress.ticks
            + self.worker_idle.ticks
            + self.mpi_busy.ticks
            + self.mpi_idle.ticks
    }

    /// `Actor::step` calls of every kind.
    pub fn actor_steps(&self) -> u64 {
        self.worker_progress.calls
            + self.worker_idle.calls
            + self.mpi_busy.calls
            + self.mpi_idle.calls
    }
}

/// Where wrappers deposit their tallies when they are dropped.
pub type LedgerSink = Arc<Mutex<Ledger>>;

fn deposit(sink: &LedgerSink, local: &Ledger) {
    // Runs in `Drop`: a poisoned lock means another panic is already
    // unwinding, so losing this tally is the right outcome.
    if let Ok(mut total) = sink.lock() {
        total.merge(local);
    }
}

/// Times `f` into `span` (a `Cell` so `&self` trait methods can record).
#[inline]
fn timed<R>(span: &Cell<Span>, f: impl FnOnce() -> R) -> R {
    let t0 = ticks();
    let r = f();
    let mut s = span.get();
    s.record(ticks() - t0);
    span.set(s);
    r
}

/// An engine actor (worker or dedicated MPI actor) with its steps timed
/// and split by outcome.
pub struct TimedActor {
    inner: Box<dyn Actor>,
    is_mpi: bool,
    local: Ledger,
    sink: LedgerSink,
}

impl TimedActor {
    pub fn new(inner: Box<dyn Actor>, is_mpi: bool, sink: LedgerSink) -> Self {
        TimedActor { inner, is_mpi, local: Ledger::default(), sink }
    }
}

impl Actor for TimedActor {
    fn id(&self) -> ActorId {
        self.inner.id()
    }

    fn step(&mut self, now: WallNs) -> StepResult {
        let t0 = ticks();
        let r = self.inner.step(now);
        let dt = ticks() - t0;
        let l = &mut self.local;
        let span = match (self.is_mpi, r.outcome == StepOutcome::Progress) {
            (false, true) => &mut l.worker_progress,
            (false, false) => &mut l.worker_idle,
            (true, true) => &mut l.mpi_busy,
            (true, false) => &mut l.mpi_idle,
        };
        span.record(dt);
        r
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}

impl Drop for TimedActor {
    fn drop(&mut self) {
        deposit(&self.sink, &self.local);
    }
}

/// The worker half of a GVT algorithm with every call timed.
struct TimedWorkerGvt {
    inner: Box<dyn WorkerGvt>,
    calls: Cell<Span>,
    steps: u64,
    blocked: u64,
    sink: LedgerSink,
}

impl WorkerGvt for TimedWorkerGvt {
    fn on_send(&mut self, class: MsgClass, recv_time: VirtualTime) -> u64 {
        timed(&self.calls, || self.inner.on_send(class, recv_time))
    }

    fn on_recv(&mut self, tag: u64, class: MsgClass) {
        timed(&self.calls, || self.inner.on_recv(tag, class))
    }

    fn step(&mut self, ctx: &WorkerGvtCtx) -> WorkerGvtOutcome {
        let out = timed(&self.calls, || self.inner.step(ctx));
        self.steps += 1;
        if matches!(out, WorkerGvtOutcome::Blocked(_)) {
            self.blocked += 1;
        }
        out
    }

    fn wants_acks(&self) -> bool {
        timed(&self.calls, || self.inner.wants_acks())
    }

    fn on_send_tracked(&mut self, id: EventId, recv_time: VirtualTime, anti: bool) {
        timed(&self.calls, || self.inner.on_send_tracked(id, recv_time, anti))
    }

    fn mark_acks(&self) -> bool {
        timed(&self.calls, || self.inner.mark_acks())
    }

    fn on_ack(&mut self, id: EventId, recv_time: VirtualTime, anti: bool, marked: bool) {
        timed(&self.calls, || self.inner.on_ack(id, recv_time, anti, marked))
    }
}

impl Drop for TimedWorkerGvt {
    fn drop(&mut self) {
        let local = Ledger {
            gvt_worker: self.calls.get(),
            gvt_worker_steps: self.steps,
            gvt_blocked: self.blocked,
            ..Ledger::default()
        };
        deposit(&self.sink, &local);
    }
}

/// The MPI half of a GVT algorithm with its steps timed.
struct TimedMpiGvt {
    inner: Box<dyn MpiGvt>,
    span: Span,
    sink: LedgerSink,
}

impl MpiGvt for TimedMpiGvt {
    fn step(&mut self, now: WallNs) -> WallNs {
        let t0 = ticks();
        let cost = self.inner.step(now);
        self.span.record(ticks() - t0);
        cost
    }
}

impl Drop for TimedMpiGvt {
    fn drop(&mut self) {
        deposit(&self.sink, &Ledger { gvt_mpi: self.span, ..Ledger::default() });
    }
}

/// A GVT bundle whose halves come out wrapped in timing forwarders.
pub struct TimedBundle {
    inner: Box<dyn GvtBundle>,
    sink: LedgerSink,
}

impl TimedBundle {
    pub fn new(inner: Box<dyn GvtBundle>, sink: LedgerSink) -> Self {
        TimedBundle { inner, sink }
    }
}

impl GvtBundle for TimedBundle {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn worker_gvt(&self, node: NodeId, lane: LaneId, worker_index: u32) -> Box<dyn WorkerGvt> {
        Box::new(TimedWorkerGvt {
            inner: self.inner.worker_gvt(node, lane, worker_index),
            calls: Cell::new(Span::default()),
            steps: 0,
            blocked: 0,
            sink: Arc::clone(&self.sink),
        })
    }

    fn mpi_gvt(&self, node: NodeId) -> Box<dyn MpiGvt> {
        Box::new(TimedMpiGvt {
            inner: self.inner.mpi_gvt(node),
            span: Span::default(),
            sink: Arc::clone(&self.sink),
        })
    }
}

/// A span shared by every worker, hence atomic (uncontended: the virtual
/// scheduler runs one actor at a time).
#[derive(Default)]
struct AtomicSpan {
    calls: AtomicU64,
    ticks: AtomicU64,
}

impl AtomicSpan {
    #[inline]
    fn record(&self, ticks: u64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.ticks.fetch_add(ticks, Ordering::Relaxed);
    }

    fn get(&self) -> Span {
        Span {
            calls: self.calls.load(Ordering::Relaxed),
            ticks: self.ticks.load(Ordering::Relaxed),
        }
    }
}

/// A model with its event handler and reverse handler timed.
pub struct TimedModel<M> {
    inner: M,
    handle: AtomicSpan,
    reverse: AtomicSpan,
}

impl<M> TimedModel<M> {
    pub fn new(inner: M) -> Self {
        TimedModel { inner, handle: AtomicSpan::default(), reverse: AtomicSpan::default() }
    }

    /// The model's share of a ledger: handler and reverse-handler spans.
    pub fn ledger(&self) -> Ledger {
        Ledger {
            model_handle: self.handle.get(),
            model_reverse: self.reverse.get(),
            ..Ledger::default()
        }
    }
}

impl<M: Model> Model for TimedModel<M> {
    type State = M::State;
    type Payload = M::Payload;

    fn init_state(&self, lp: LpId, rng: &mut Pcg32) -> Self::State {
        self.inner.init_state(lp, rng)
    }

    fn initial_events(
        &self,
        lp: LpId,
        state: &mut Self::State,
        rng: &mut Pcg32,
        emit: &mut Emitter<Self::Payload>,
    ) {
        self.inner.initial_events(lp, state, rng, emit)
    }

    fn handle(
        &self,
        ctx: &EventCtx,
        state: &mut Self::State,
        payload: &Self::Payload,
        rng: &mut Pcg32,
        emit: &mut Emitter<Self::Payload>,
    ) -> u64 {
        let t0 = ticks();
        let epg = self.inner.handle(ctx, state, payload, rng, emit);
        self.handle.record(ticks() - t0);
        epg
    }

    fn state_fingerprint(&self, state: &Self::State) -> u64 {
        self.inner.state_fingerprint(state)
    }

    fn supports_reverse(&self) -> bool {
        self.inner.supports_reverse()
    }

    fn reverse(
        &self,
        ctx: &EventCtx,
        state: &mut Self::State,
        payload: &Self::Payload,
        rng: &mut Pcg32,
    ) {
        let t0 = ticks();
        self.inner.reverse(ctx, state, payload, rng);
        self.reverse.record(ticks() - t0);
    }
}
