//! The worker thread: the engine's main loop as an actor state machine.
//!
//! Each step performs one iteration of the classic optimistic main loop:
//!
//! 1. drain the lane's inbound queue (insert events, handle anti-messages,
//!    annihilate, roll back as needed);
//! 2. if this worker carries MPI duty (inline modes), pump the MPI layer;
//! 3. advance the GVT algorithm; fossil collect on round completion;
//! 4. unless the GVT step blocked (synchronous algorithms) or the optimism
//!    throttle is engaged, process the lowest pending event and route its
//!    emissions.
//!
//! All charging goes through the [`CostModel`](cagvt_net::CostModel), so
//! the identical code yields paper-scale timing under the virtual
//! scheduler and real timing under the thread runtime.
//!
//! Each step ends in an explicit [`WaitState`]. A step that waited (idle,
//! throttled or blocked) and will repeat exactly until a known instant or a
//! GVT transition *parks* (see `cagvt_base::actor`): the virtual scheduler
//! stops polling it and, when it resumes, tells it how many polls it
//! skipped, which the worker credits to its per-poll counters so every
//! report counter matches a polled run.

use cagvt_base::actor::{Actor, Park, StepResult};
use cagvt_base::ids::{ActorId, EventId, LaneId, LpId, NodeId};
use cagvt_base::time::{VirtualTime, WallNs};
use cagvt_base::trace::TraceRecord;
use cagvt_net::{MpiMode, MsgClass};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::event::{AntiMsg, Event, EventMsg, RemoteEnv, TaggedMsg};
use crate::gvt::{WorkerGvt, WorkerGvtCtx, WorkerGvtOutcome, WAKE_GVT, WAKE_PACING};
use crate::lp::{LpRuntime, Rollback, SentRecord};
use crate::model::{Emitter, EventCtx, Model};
use crate::mpi_actor::MpiPump;
use crate::node::{EngineShared, NodeShared};
use crate::queue::{CancelOutcome, PendingSet};
use crate::stats::WorkerCounters;

/// What one worker step amounted to: the worker's explicit wait state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WaitState {
    /// Did work: drained messages, pumped MPI, advanced GVT or processed
    /// an event.
    Running,
    /// Nothing to process: the pending set is empty or past the end time.
    Idle,
    /// The lowest pending event is held back by the optimism throttle.
    Throttled,
    /// Held at a GVT synchronization point.
    Blocked,
    /// Finished; the worker never steps again.
    Done,
}

/// The round request a step issued.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Request {
    None,
    /// The event interval elapsed.
    Interval,
    /// Unable to progress for a full backoff since the last round.
    Idle,
}

/// One step, as far as the per-poll counters and the scheduler see it.
/// [`Worker::credit`] applies the per-poll counters, once per poll.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Poll {
    state: WaitState,
    /// Charged cost of the step.
    cost: WallNs,
    /// The charge of a blocked GVT step (the blocked time), else zero.
    blocked: WallNs,
    /// The optimism throttle held back the lowest pending event.
    throttled: bool,
    request: Request,
}

/// A worker thread of one node.
pub struct Worker<M: Model> {
    actor_id: ActorId,
    node: NodeId,
    lane: LaneId,
    /// Dense global worker index.
    widx: u32,
    first_lp: u32,
    shared: Arc<EngineShared<M>>,
    nshared: Arc<NodeShared<M::Payload>>,
    model: Arc<M>,
    lps: Vec<LpRuntime<M>>,
    pending: PendingSet<M::Payload>,
    gvt: Box<dyn WorkerGvt>,
    /// MPI duty carried by this worker (inline modes, lane 0 only).
    mpi_duty: Option<MpiPump<M>>,
    counters: WorkerCounters,
    events_since_round: u64,
    /// Total uncommitted history across this worker's LPs (throttle input).
    uncommitted: usize,
    recv_buf: Vec<TaggedMsg<M::Payload>>,
    emit: Emitter<M::Payload>,
    local_antis: VecDeque<AntiMsg>,
    /// Start of the current contiguous barrier-blocked stretch, if any
    /// (one `BarrierWait` record and counter update on release).
    blocked_since: Option<WallNs>,
    /// The GVT algorithm requires acknowledgement traffic (Samadi).
    acks_enabled: bool,
    finished: bool,
    /// The poll this worker last parked on; credited once per skipped poll.
    parked: Option<Poll>,
    /// The previous step, if it waited, with the transition epoch at its
    /// start.
    last_wait: Option<(Poll, u64)>,
}

impl<M: Model> Worker<M> {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        actor_id: ActorId,
        node: NodeId,
        lane: LaneId,
        shared: Arc<EngineShared<M>>,
        lps: Vec<LpRuntime<M>>,
        gvt: Box<dyn WorkerGvt>,
        mpi_duty: Option<MpiPump<M>>,
    ) -> Self {
        let nshared = Arc::clone(&shared.nodes[node.index()]);
        let model = Arc::clone(&shared.model);
        let widx = shared.worker_index(node, lane);
        let first_lp = shared.first_lp(node, lane).0;
        let acks_enabled = gvt.wants_acks();
        Worker {
            actor_id,
            node,
            lane,
            widx,
            first_lp,
            shared,
            nshared,
            model,
            lps,
            pending: PendingSet::new(),
            gvt,
            mpi_duty,
            counters: WorkerCounters::default(),
            events_since_round: 0,
            uncommitted: 0,
            recv_buf: Vec::new(),
            emit: Emitter::new(),
            local_antis: VecDeque::new(),
            blocked_since: None,
            acks_enabled,
            finished: false,
            parked: None,
            last_wait: None,
        }
    }

    /// Insert a pre-run (time-zero) event, used by the cluster builder.
    pub fn preload_event(&mut self, event: Event<M::Payload>) {
        let inserted = self.pending.insert(event);
        debug_assert!(inserted, "no anti-messages can exist before the run");
    }

    /// Builder access to LP `k` (time-zero seeding).
    pub fn lp_mut(&mut self, k: usize) -> &mut LpRuntime<M> {
        &mut self.lps[k]
    }

    #[inline]
    fn lp_index(&self, lp: LpId) -> usize {
        let idx = (lp.0 - self.first_lp) as usize;
        debug_assert!(idx < self.lps.len(), "event routed to wrong worker: {lp}");
        idx
    }

    /// Route a tagged message to its destination queue, returning the send
    /// charge. Local deliveries are applied immediately.
    fn route(&mut self, now: WallNs, msg: EventMsg<M::Payload>) -> WallNs {
        let cost = &self.shared.cfg.cost;
        let dst = msg.dst();
        let (dst_node, dst_lane) = self.shared.locate(dst);
        let is_ack = matches!(msg, EventMsg::Ack(_));
        let (id, recv_time, anti) = msg.identity();
        if !is_ack {
            let (worker, remote) = (self.widx, dst_node != self.node);
            self.shared.gvt_core.emit(now, || TraceRecord::MsgSend {
                worker,
                id,
                dst,
                vt: recv_time,
                anti,
                remote,
            });
        }
        if dst_node == self.node && dst_lane == self.lane {
            // Local: never in flight, no tag, no channel.
            match msg {
                EventMsg::Event(e) => {
                    self.counters.sent_local += 1;
                    if !self.pending.insert(e) {
                        self.counters.annihilated += 1;
                    }
                }
                EventMsg::Anti(a) => {
                    self.counters.sent_local += 1;
                    self.local_antis.push_back(a);
                }
                // A local "ack" can only arise from a local send, which is
                // never tracked — nothing to do.
                EventMsg::Ack(_) => return WallNs::ZERO,
            }
            return cost.local_send;
        }
        if matches!(msg, EventMsg::Anti(_)) {
            self.counters.antis_sent += 1;
        }
        // Acknowledgements are GVT-algorithm bookkeeping, not simulation
        // messages: they carry no color tag and stay out of the in-transit
        // accounting (they can never cause a rollback). Samadi tracks the
        // *acknowledged* messages instead.
        if is_ack {
            self.counters.acks_sent += 1;
        } else {
            self.shared.stats.msgs_sent.fetch_add(1, Ordering::Release);
            if self.acks_enabled {
                self.gvt.on_send_tracked(id, recv_time, anti);
            }
        }
        if dst_node == self.node {
            let tag = if is_ack { 0 } else { self.gvt.on_send(MsgClass::Regional, recv_time) };
            self.counters.sent_regional += 1;
            let deliver_at = now + cost.regional_latency;
            if self.nshared.lane_queues[dst_lane.index()].push(deliver_at, TaggedMsg { msg, tag }) {
                self.shared.post_to_lane(dst_node, dst_lane, deliver_at);
            }
            cost.regional_send
        } else {
            let tag = if is_ack { 0 } else { self.gvt.on_send(MsgClass::Remote, recv_time) };
            self.counters.sent_remote += 1;
            let env = RemoteEnv { dst_node, dst_lane, tagged: TaggedMsg { msg, tag } };
            if self.shared.cfg.spec.mpi_mode == MpiMode::PerWorker {
                // This worker performs the MPI send itself, through the
                // contended library lock.
                let hold = cost.mpi_send + cost.mpi_lock_hold;
                let charge = self.nshared.mpi_lock.acquire(now, hold);
                self.shared.fabric.send_event(self.node, dst_node, now + charge, env, cost);
                charge
            } else {
                self.nshared.outbox.push(now, env);
                self.nshared.note_outbox_depth();
                cost.remote_post
            }
        }
    }

    /// Apply a rollback result: account, re-enqueue, send anti-messages.
    fn apply_rollback(&mut self, now: WallNs, rb: Rollback<M::Payload>, straggler: bool) -> WallNs {
        let cost = &self.shared.cfg.cost;
        let mut charge = WallNs::ZERO;
        if rb.undone == 0 {
            return charge;
        }
        self.counters.rollbacks += 1;
        self.counters.rolled_back += rb.undone;
        self.uncommitted -= rb.undone as usize;
        self.shared.stats.rolled_back.fetch_add(rb.undone, Ordering::Relaxed);
        let (worker, undone) = (self.widx, rb.undone);
        self.shared.gvt_core.emit(now, || TraceRecord::Rollback { worker, undone, straggler });
        charge += WallNs(cost.rollback_per_event.0 * rb.undone);
        for e in rb.reenqueue {
            let (id, vt) = (e.id, e.recv_time);
            self.shared.gvt_core.emit(now, || TraceRecord::Reenqueue { worker, id, vt });
            if !self.pending.insert(e) {
                self.counters.annihilated += 1;
            }
        }
        for a in rb.antis {
            charge += self.route(now + charge, EventMsg::Anti(a));
        }
        charge
    }

    /// Handle one received anti-message (and any local cascade it causes).
    fn handle_anti(&mut self, now: WallNs, anti: AntiMsg) -> WallNs {
        self.local_antis.push_back(anti);
        self.drain_local_antis(now)
    }

    /// Process queued local anti-messages until none remain. Every code
    /// path that can call [`Self::route`] outside this loop must drain
    /// afterwards, or a locally-routed anti would sit unapplied while its
    /// target is re-sent.
    fn drain_local_antis(&mut self, now: WallNs) -> WallNs {
        let mut charge = WallNs::ZERO;
        let mut cascade = 0u64;
        let worker = self.widx;
        while let Some(a) = self.local_antis.pop_front() {
            self.counters.antis_received += 1;
            let idx = self.lp_index(a.dst);
            if self.lps[idx].has_processed(a.id) {
                // GVT safety: an anti-message can only cancel work that is
                // still provisional. Rolling back below the published GVT
                // would mean a GVT algorithm overshot (fossil-collected
                // state is gone), so this is checked unconditionally.
                let gvt_floor = self.shared.gvt_core.published_gvt();
                assert!(
                    a.recv_time >= gvt_floor,
                    "anti-message rollback target {} below published GVT {gvt_floor}",
                    a.recv_time
                );
                cascade += 1;
                let rb = self.lps[idx].rollback_cancel(&*self.model, a.id, a.key());
                self.counters.annihilated += 1;
                let id = a.id;
                self.shared.gvt_core.emit(now + charge, || TraceRecord::Annihilate {
                    worker,
                    id,
                    pending: false,
                });
                charge += self.apply_rollback(now + charge, rb, false);
            } else {
                match self.pending.cancel(a.key()) {
                    CancelOutcome::AnnihilatedPending => {
                        self.counters.annihilated += 1;
                        let id = a.id;
                        self.shared.gvt_core.emit(now + charge, || TraceRecord::Annihilate {
                            worker,
                            id,
                            pending: true,
                        });
                    }
                    CancelOutcome::Deferred => {
                        let (id, vt) = (a.id, a.recv_time);
                        self.shared.gvt_core.emit(now + charge, || TraceRecord::AntiDeferred {
                            worker,
                            id,
                            vt,
                        });
                    }
                }
            }
        }
        self.counters.max_cascade = self.counters.max_cascade.max(cascade);
        charge
    }

    /// Drain this lane's inbound queue.
    fn drain_inbound(&mut self, now: WallNs) -> (WallNs, bool) {
        let cost = self.shared.cfg.cost;
        let mut charge = WallNs::ZERO;
        let mut buf = std::mem::take(&mut self.recv_buf);
        let n = self.nshared.lane_queues[self.lane.index()].drain_ready_into(
            now,
            self.shared.cfg.recv_batch,
            &mut buf,
        );
        for tagged in buf.drain(..) {
            charge += cost.recv_handling;
            if let EventMsg::Ack(a) = &tagged.msg {
                self.counters.acks_received += 1;
                self.gvt.on_ack(a.id, a.recv_time, a.anti, a.marked);
                continue;
            }
            self.counters.received_msgs += 1;
            self.shared.stats.msgs_received.fetch_add(1, Ordering::Release);
            self.gvt.on_recv(tagged.tag, MsgClass::Regional);
            let (id, vt, anti) = tagged.msg.identity();
            if self.acks_enabled {
                let marked = self.gvt.mark_acks();
                let ack = crate::event::AckMsg { id, recv_time: vt, anti, marked };
                charge += self.route(now + charge, EventMsg::Ack(ack));
            }
            let worker = self.widx;
            self.shared.gvt_core.emit(now + charge, || TraceRecord::MsgRecv {
                worker,
                id,
                vt,
                anti,
            });
            match tagged.msg {
                EventMsg::Event(e) => {
                    if !self.pending.insert(e) {
                        self.counters.annihilated += 1;
                    }
                }
                EventMsg::Anti(a) => {
                    charge += self.handle_anti(now + charge, a);
                }
                EventMsg::Ack(_) => unreachable!(),
            }
        }
        self.recv_buf = buf;
        (charge, n > 0)
    }

    /// Fossil collect all LPs at the new GVT.
    fn fossil(&mut self, gvt: VirtualTime) -> WallNs {
        // Tombstones keyed below the new GVT can never match again; free
        // them with the same pass that frees LP history.
        self.pending.purge_below(gvt);
        let mut committed = 0u64;
        for lp in &mut self.lps {
            committed += lp.fossil_collect(gvt);
        }
        self.uncommitted -= committed as usize;
        self.counters.committed += committed;
        self.shared.stats.committed.fetch_add(committed, Ordering::Relaxed);
        WallNs(self.shared.cfg.cost.fossil_per_event.0 * committed)
    }

    /// Process the minimum pending event, if allowed. Returns the charge
    /// and `Running` if an event was processed, else why not (`Throttled`
    /// or `Idle`).
    fn process_next(&mut self, now: WallNs) -> (WallNs, WaitState) {
        let cfg = self.shared.cfg;
        let end = cfg.end_vt();
        if self.uncommitted >= cfg.max_outstanding {
            return (WallNs::ZERO, WaitState::Throttled);
        }
        let Some(key) = self.pending.min_key() else {
            return (WallNs::ZERO, WaitState::Idle);
        };
        if key.t >= end {
            return (WallNs::ZERO, WaitState::Idle);
        }
        let event = self.pending.pop_min().expect("min_key was Some");
        let cost = cfg.cost;
        let mut charge = WallNs::ZERO;

        let idx = self.lp_index(event.dst);
        if event.key() <= self.lps[idx].last_key() {
            // Straggler: roll the LP back to just before this event. Local
            // antis must apply before processing resumes — the re-execution
            // below reuses the sequence numbers they cancel.
            //
            // GVT safety: the rollback target must sit at or above the
            // published GVT — state below it has been fossil-collected.
            // Checked unconditionally so every fault-plan run exercises it.
            let gvt_floor = self.shared.gvt_core.published_gvt();
            assert!(
                event.recv_time >= gvt_floor,
                "straggler rollback target {} below published GVT {gvt_floor}",
                event.recv_time
            );
            self.counters.stragglers += 1;
            let rb = self.lps[idx].rollback_to(&*self.model, event.key());
            charge += self.apply_rollback(now, rb, true);
            charge += self.drain_local_antis(now + charge);
        }

        let ctx = EventCtx {
            now: event.recv_time,
            self_lp: event.dst,
            end_time: end,
            total_lps: cfg.total_lps(),
        };
        let (eid, edst) = (event.id, event.dst);
        let span_start = now + charge;
        let mut emit = std::mem::take(&mut self.emit);
        let epg = self.lps[idx].process(&*self.model, &ctx, event, &mut emit);
        let span = cost.event_overhead + cost.epg_cost(epg);
        {
            let (worker, vt) = (self.widx, ctx.now);
            self.shared.gvt_core.emit(span_start, || TraceRecord::EventSpan {
                worker,
                id: eid,
                dst: edst,
                vt,
                dur: span,
            });
        }
        charge += span;

        // Stamp, route and record the emissions.
        let base = ctx.now;
        let mut records: Vec<SentRecord> = Vec::with_capacity(emit.len());
        let sends: Vec<(LpId, f64, M::Payload)> = emit.take().collect();
        self.emit = emit;
        for (dst, delay, payload) in sends {
            let seq = self.lps[idx].next_seq();
            let id = EventId::new(self.lps[idx].id, seq);
            let recv_time = base + delay;
            records.push(SentRecord { dst, recv_time, id });
            charge +=
                self.route(now + charge, EventMsg::Event(Event { recv_time, dst, id, payload }));
        }
        self.lps[idx].record_sends(records);
        charge += self.drain_local_antis(now + charge);

        self.uncommitted += 1;
        self.counters.processed += 1;
        self.counters.busy_time += charge;
        self.shared.stats.processed.fetch_add(1, Ordering::Relaxed);
        self.events_since_round += 1;
        self.shared.stats.worker_lvts[self.widx as usize]
            .store(base.to_ordered_bits(), Ordering::Relaxed);
        (charge, WaitState::Running)
    }

    fn finish(&mut self) {
        // GVT has passed the end time: everything processed is final and
        // no rollback can follow (so periodic-snapshot retention lifts).
        let end = self.shared.cfg.end_vt();
        let mut committed = 0u64;
        for lp in &mut self.lps {
            committed += lp.fossil_collect_final(end);
        }
        self.uncommitted -= committed as usize;
        self.counters.committed += committed;
        self.shared.stats.committed.fetch_add(committed, Ordering::Relaxed);
        let mut fp = 0u64;
        for lp in &self.lps {
            fp ^= crate::seq::fingerprint_mix(lp.id, self.model.state_fingerprint(&lp.state));
        }
        self.shared.stats.state_fp.fetch_xor(fp, Ordering::AcqRel);
        self.shared.stats.worker_deposits.lock().push(self.counters);
        if let Some(pump) = &self.mpi_duty {
            self.shared.stats.mpi_deposits.lock().push(pump.counters);
        }
        self.finished = true;
    }

    /// The park for a waiting `poll`, if every further poll would repeat it
    /// exactly until the park's wake condition; `epoch` is the transition
    /// epoch at the step's start.
    fn park(&mut self, poll: Poll, epoch: u64) -> Option<Park> {
        let core = &self.shared.gvt_core;
        let previous = self.last_wait.replace((poll, epoch));
        // Inline MPI duty polls the network, which announces nothing.
        if self.mpi_duty.is_some() {
            return None;
        }
        // A `Quiet` GVT step repeats by contract; a `Blocked` one only once
        // it has repeated with no transition since (`crate::gvt`).
        if poll.state == WaitState::Blocked && previous != Some((poll, core.transition_epoch())) {
            return None;
        }
        // The lane queue is FIFO gated on its head: only the head's
        // delivery, or a push onto the empty queue (posted to the board),
        // can end the wait.
        let mut until = self.nshared.lane_queues[self.lane.index()].head_deliver_at();
        let mut on = WAKE_GVT;
        let cfg = &self.shared.cfg;
        match poll.request {
            // Requesting on every poll until a later round completes.
            Request::Idle => on |= WAKE_PACING,
            // Not yet requesting: a later round completion only moves the
            // backoff edge later, so the edge is a safe deadline.
            Request::None
                if poll.state != WaitState::Blocked && core.published_gvt() < cfg.end_vt() =>
            {
                let edge = core.last_round_wall() + cfg.idle_request_backoff;
                until = Some(until.map_or(edge, |u| u.min(edge)));
            }
            _ => {}
        }
        // A blocked poll charges its wait as GVT time, which the thread
        // runtime realizes by running it as progress.
        let busy = poll.state == WaitState::Blocked;
        Some(Park { until, on, busy, board: Arc::clone(&core.wake) })
    }

    /// Apply the per-poll counters of `polls` repetitions of `poll`: the
    /// step itself, or the polls skipped while it was parked.
    fn credit(&mut self, poll: Poll, polls: u64) {
        let c = &mut self.counters;
        if matches!(poll.state, WaitState::Idle | WaitState::Throttled) {
            c.idle_polls += polls;
        }
        if poll.throttled {
            c.throttled += polls;
        }
        c.gvt_time += WallNs(poll.blocked.0 * polls);
        match poll.request {
            Request::None => {}
            Request::Interval => c.requests_interval += polls,
            Request::Idle => c.requests_idle += polls,
        }
    }

    /// One iteration of the main loop (module docs), ending in the
    /// step's wait state. Leaves the per-poll counters to [`Self::credit`].
    fn poll(&mut self, now: WallNs) -> Poll {
        let running = |cost| Poll {
            state: WaitState::Running,
            cost,
            blocked: WallNs::ZERO,
            throttled: false,
            request: Request::None,
        };
        if self.finished {
            return Poll { state: WaitState::Done, ..running(WallNs::ZERO) };
        }
        if self.shared.gvt_core.stopped() {
            self.finish();
            return running(WallNs(100));
        }
        let cfg = self.shared.cfg;
        let mut charge = WallNs::ZERO;
        let mut did_work = false;

        // 1. Inbound messages.
        let (c, moved) = self.drain_inbound(now);
        charge += c;
        did_work |= moved;
        // Publish the post-drain contribution before any GVT step can run:
        // draining (including anti-message rollbacks) is the only way this
        // worker's minimum can *decrease*, and a stale-high published value
        // would let a concurrent GVT computation overshoot.
        self.shared.stats.worker_contrib[self.widx as usize]
            .store(self.pending.min_time().to_ordered_bits(), Ordering::Release);

        // 2. Inline MPI duty.
        if let Some(mut pump) = self.mpi_duty.take() {
            let (c, moved) = pump.pump(now + charge);
            charge += c;
            did_work |= moved;
            self.mpi_duty = Some(pump);
        }

        // 3. GVT.
        let ctx = WorkerGvtCtx {
            now: now + charge,
            lvt: self.pending.min_time(),
            worker_index: self.widx,
        };
        let mut blocked = false;
        let mut blocked_charge = WallNs::ZERO;
        let outcome = self.gvt.step(&ctx);
        // Close out a barrier-blocked stretch: one `BarrierWait` record and
        // counter update spanning first blocked step to release.
        if !matches!(outcome, WorkerGvtOutcome::Blocked(_)) {
            if let Some(start) = self.blocked_since.take() {
                let dur = now.saturating_sub(start);
                self.counters.barrier_wait += dur;
                let worker = self.widx;
                self.shared.gvt_core.emit(start, || TraceRecord::BarrierWait { worker, dur });
            }
        }
        match outcome {
            WorkerGvtOutcome::Quiet => {}
            WorkerGvtOutcome::Working(c) => {
                charge += c;
                self.counters.gvt_time += c;
                did_work = true;
            }
            WorkerGvtOutcome::Blocked(c) => {
                charge += c;
                blocked_charge = c;
                blocked = true;
                if self.blocked_since.is_none() {
                    self.blocked_since = Some(now);
                }
            }
            WorkerGvtOutcome::Completed { gvt, cost } => {
                charge += cost;
                self.counters.gvt_time += cost;
                self.counters.gvt_rounds += 1;
                self.shared.gvt_core.note_round_wall(now + charge);
                charge += self.fossil(gvt);
                self.events_since_round = 0;
                did_work = true;
                // Metrics cells refresh once per round (never on the event
                // path): each worker snapshots its private counters here so
                // the epoch assembler can merge them. Gated, so un-metered
                // runs skip even these stores.
                if self.shared.gvt_core.metrics_on() {
                    self.shared.stats.publish_worker_cell(self.widx, &self.counters);
                }
                if self.widx == 0 {
                    // One horizon sample per round feeds the report and the
                    // metrics epoch; `HorizonStats::compute` repeats its
                    // arithmetic on the trace snapshot below.
                    let horizon = self.shared.stats.horizon_sample();
                    self.shared.stats.record_horizon(&horizon);
                    self.shared.stats.progress.lock().push(crate::stats::ProgressSample {
                        gvt: gvt.as_f64(),
                        wall: now + charge,
                        committed: self.shared.stats.committed.load(Ordering::Relaxed),
                    });
                    // Horizon snapshot: the published GVT plus every finite
                    // worker LVT, batched so `HorizonStats::compute` can pair
                    // them up.
                    if let Some(tr) = self.shared.gvt_core.tracing() {
                        let t = now + charge;
                        let round = self.shared.gvt_core.published_round();
                        tr.record(t, &TraceRecord::GvtPublish { round, gvt });
                        for (i, l) in self.shared.stats.worker_lvts.iter().enumerate() {
                            let lvt = VirtualTime::from_ordered_bits(l.load(Ordering::Relaxed));
                            if lvt.is_finite() {
                                tr.record(t, &TraceRecord::Lvt { worker: i as u32, lvt });
                            }
                        }
                    }
                    // Per-GVT-epoch metrics publication (after the round's
                    // fossil pass, before the termination check so the
                    // final round is included). Records only; charges no
                    // virtual time.
                    self.shared.gvt_core.publish_epoch(now + charge, &horizon);
                }
                if gvt >= cfg.end_vt() {
                    self.shared.gvt_core.signal_stop();
                    self.finish();
                    return running(charge);
                }
            }
        }

        // 4. Event processing.
        let mut state = WaitState::Blocked;
        if !blocked {
            let (c, s) = self.process_next(now + charge);
            charge += c;
            state = s;
            did_work |= s == WaitState::Running;
        }

        // Publish this worker's GVT contribution.
        self.shared.stats.worker_contrib[self.widx as usize]
            .store(self.pending.min_time().to_ordered_bits(), Ordering::Release);

        // Round initiation: on interval, or whenever progress is gated on
        // a new GVT (throttled or drained below the end time).
        let mut request = Request::None;
        if self.events_since_round >= cfg.gvt_interval {
            self.shared.gvt_core.request_round();
            request = Request::Interval;
        } else if matches!(state, WaitState::Idle | WaitState::Throttled)
            && self.shared.gvt_core.published_gvt() < cfg.end_vt()
        {
            // Globally paced: give busy workers a full quiet interval
            // after each completed round before idle workers may force
            // another one (prevents the end-of-run round convoy).
            let last_round = self.shared.gvt_core.last_round_wall();
            if now.saturating_sub(last_round) >= cfg.idle_request_backoff {
                self.shared.gvt_core.request_round();
                request = Request::Idle;
            }
        }

        let throttled = state == WaitState::Throttled;
        let (state, cost) = if did_work {
            (WaitState::Running, charge.max(WallNs(1)))
        } else if blocked {
            (state, charge.max(WallNs(1)))
        } else {
            (state, charge + cfg.cost.idle_poll)
        };
        Poll { state, cost, blocked: blocked_charge, throttled, request }
    }
}

impl<M: Model> Actor for Worker<M> {
    fn id(&self) -> ActorId {
        self.actor_id
    }

    fn label(&self) -> String {
        format!("worker@{}.{}", self.node, self.lane.0)
    }

    fn step(&mut self, now: WallNs) -> StepResult {
        if let Some(poll) = self.parked.take() {
            let skipped = self.shared.gvt_core.wake.take_skipped(self.actor_id);
            self.credit(poll, skipped);
        }
        let epoch = self.shared.gvt_core.transition_epoch();
        let poll = self.poll(now);
        self.credit(poll, 1);
        match poll.state {
            WaitState::Done => StepResult::done(),
            WaitState::Running => {
                self.last_wait = None;
                StepResult::progress(poll.cost)
            }
            WaitState::Idle | WaitState::Throttled | WaitState::Blocked => {
                match self.park(poll, epoch) {
                    Some(park) => {
                        self.parked = Some(poll);
                        StepResult::park(poll.cost, park)
                    }
                    // Unparked, a blocked poll still runs as progress, so the
                    // thread runtime realizes its cost.
                    None if poll.state == WaitState::Blocked => StepResult::progress(poll.cost),
                    None => StepResult::idle(poll.cost),
                }
            }
        }
    }
}
