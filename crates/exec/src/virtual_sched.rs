//! Deterministic virtual-cluster scheduler.

use cagvt_base::actor::{Actor, Park, StepOutcome, WakeBoard};
use cagvt_base::hooks::Hooks;
use cagvt_base::ids::ActorId;
use cagvt_base::time::WallNs;
use cagvt_base::trace::TraceRecord;
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Tunables of the virtual scheduler.
#[derive(Clone, Debug)]
pub struct VirtualConfig {
    /// Minimum clock advance for a step that reported zero cost. Keeps
    /// virtual time strictly advancing so idle polling cannot livelock the
    /// scheduler.
    pub min_advance: WallNs,
    /// Hard stop: abandon the run if any actor's clock would exceed this.
    /// `None` trusts the actors to terminate.
    pub horizon: Option<WallNs>,
    /// Hard stop on total step count (debugging aid).
    pub max_steps: Option<u64>,
    /// The run's hooks. The scheduler scales each step's charged cost
    /// through `hooks.faults` (node straggle) and records actor
    /// retirements to `hooks.trace`; the engine layers consult their own
    /// copies of the same hooks. Recording never changes a charged cost.
    pub hooks: Hooks,
}

impl Default for VirtualConfig {
    fn default() -> Self {
        VirtualConfig {
            min_advance: WallNs(50),
            horizon: None,
            max_steps: None,
            hooks: Hooks::default(),
        }
    }
}

/// Outcome of a virtual run.
#[derive(Clone, Copy, Debug)]
pub struct VirtualRunStats {
    /// Wall-clock instant at which the last actor finished — the simulated
    /// makespan of the run.
    pub final_time: WallNs,
    /// Total [`Actor::step`] calls made. Polls skipped while an actor was
    /// parked are not steps.
    pub steps: u64,
    /// Steps that reported [`StepOutcome::Idle`] or [`StepOutcome::Park`].
    pub idle_steps: u64,
    /// False if the run was cut off by `horizon` or `max_steps`, or every
    /// live actor was parked with nothing left to wake it.
    pub completed: bool,
}

/// Drives a set of actors in virtual time.
///
/// Invariant: the actor stepped next is always the one with the minimum
/// clock (ties broken by [`ActorId`](cagvt_base::ActorId)), so all shared
/// state mutations happen in a globally ordered, reproducible sequence.
///
/// Parked actors ([`StepOutcome::Park`]) leave the step order until their
/// wake condition holds and re-enter it at the exact poll instant they
/// would have reached by polling, so parking changes the step count but
/// never the sequence of steps that do anything.
pub struct VirtualScheduler {
    cfg: VirtualConfig,
}

/// Heap entry `(clock, actor id, slot, generation)`, min-first via
/// `Reverse`. A slot's generation moves on whenever a parked actor is
/// rescheduled earlier, which leaves its older entry stale.
type Entry = Reverse<(u64, u32, usize, u32)>;

/// Scheduler-side record of one parked actor.
#[derive(Clone, Copy, Debug)]
struct Parked {
    /// First poll instant the park skips.
    next: u64,
    /// Clock advance per skipped poll.
    period: u64,
    /// Wake channels of the park.
    on: u64,
    /// Instant of the actor's heap entry, if it has one.
    resume: Option<u64>,
    /// Still woken by announcements and posts (false once an announcement
    /// fixed the earliest possible resume).
    waiting: bool,
}

impl Parked {
    /// First poll instant at or after `at`.
    fn poll_at_or_after(&self, at: u64) -> u64 {
        if at <= self.next {
            self.next
        } else {
            self.next + (at - self.next).div_ceil(self.period) * self.period
        }
    }

    /// First poll instant at or after `at` that actor `id` reaches after
    /// the step at `(clock, by)` in `(clock, id)` order.
    fn resume_after(&self, id: u32, clock: u64, by: u32, at: u64) -> u64 {
        let after = if id > by { clock } else { clock + 1 };
        self.poll_at_or_after(at.max(after))
    }
}

/// The parked actors of one run and the board they park on.
struct Parking {
    board: Option<Arc<WakeBoard>>,
    /// Slot of each actor id the board covers (`usize::MAX`: none).
    slot_of: Vec<usize>,
    parked: Vec<Option<Parked>>,
    generation: Vec<u32>,
    /// Parked actors still waiting on announcements.
    waiting: usize,
    posts: Vec<(ActorId, WallNs)>,
}

impl Parking {
    fn new(slots: usize) -> Self {
        Parking {
            board: None,
            slot_of: Vec::new(),
            parked: vec![None; slots],
            generation: vec![0; slots],
            waiting: 0,
            posts: Vec::new(),
        }
    }

    /// Whether `id` can park on `park`'s board, registering the board on
    /// first use (a run parks on one board, covering the actor's id).
    fn can_park(&mut self, park: &Park, id: u32, ids: &[u32]) -> bool {
        let board = self.board.get_or_insert_with(|| {
            self.slot_of = vec![usize::MAX; park.board.actors()];
            for (slot, &i) in ids.iter().enumerate() {
                if let Some(s) = self.slot_of.get_mut(i as usize) {
                    *s = slot;
                }
            }
            Arc::clone(&park.board)
        });
        Arc::ptr_eq(board, &park.board) && (id as usize) < board.actors()
    }

    /// What was announced and posted since the last call.
    fn take_announced(&self) -> (u64, bool) {
        self.board.as_ref().map_or((0, false), |b| b.take_announced())
    }

    /// Park `slot` after its poll at `clock`, which advanced its clock by
    /// `period`. Returns the instant of its heap entry: its deadline's
    /// poll instant, if it has a deadline.
    fn park(&mut self, slot: usize, id: u32, clock: u64, period: u64, park: &Park) -> Option<u64> {
        let mut p =
            Parked { next: clock + period, period, on: park.on, resume: None, waiting: true };
        p.resume = park.until.map(|u| p.poll_at_or_after(u.0));
        self.parked[slot] = Some(p);
        self.waiting += 1;
        self.board.as_ref().expect("can_park registered the board").set_parked(ActorId(id), true);
        p.resume
    }

    /// The valid entry of `slot` popped: if it was parked, hand it the
    /// skipped-poll count and unpark it.
    fn resume(&mut self, slot: usize, id: u32, clock: u64) {
        if let Some(p) = self.parked[slot].take() {
            if p.waiting {
                self.waiting -= 1;
            }
            let board = self.board.as_ref().expect("parked actors imply a board");
            board.set_skipped(ActorId(id), (clock - p.next) / p.period);
            board.set_parked(ActorId(id), false);
        }
    }

    /// Wake parked actors for what the step at `(clock, by)` announced and
    /// posted.
    fn wake(&mut self, heap: &mut BinaryHeap<Entry>, ids: &[u32], clock: u64, by: u32, bits: u64) {
        let board = self.board.as_ref().expect("announcements imply a board");
        if bits != 0 && self.waiting > 0 {
            let slots = self.parked.iter_mut().zip(&mut self.generation).zip(ids).enumerate();
            for (slot, ((parked, generation), &id)) in slots {
                let Some(p) = parked else { continue };
                if !p.waiting || p.on & bits == 0 {
                    continue;
                }
                let at = p.resume_after(id, clock, by, 0);
                if p.resume.is_none_or(|r| at < r) {
                    *generation += 1;
                    heap.push(Reverse((at, id, slot, *generation)));
                    p.resume = Some(at);
                }
                // Nothing later can wake it earlier than this.
                p.waiting = false;
                self.waiting -= 1;
                board.set_parked(ActorId(id), false);
            }
        }
        board.drain_posts(&mut self.posts);
        for (actor, deliver_at) in self.posts.drain(..) {
            let slot = self.slot_of[actor.0 as usize];
            let Some(p) = self.parked.get_mut(slot).and_then(|p| p.as_mut()) else { continue };
            if !p.waiting {
                continue;
            }
            let at = p.resume_after(actor.0, clock, by, deliver_at.0);
            if p.resume.is_none_or(|r| at < r) {
                self.generation[slot] += 1;
                heap.push(Reverse((at, actor.0, slot, self.generation[slot])));
                p.resume = Some(at);
            }
        }
    }
}

impl VirtualScheduler {
    pub fn new(cfg: VirtualConfig) -> Self {
        VirtualScheduler { cfg }
    }

    /// Run the actors to completion (all [`StepOutcome::Done`]) or until a
    /// safety valve triggers.
    pub fn run(&self, mut actors: Vec<Box<dyn Actor>>) -> VirtualRunStats {
        assert!(!actors.is_empty(), "no actors to schedule");
        let ids: Vec<u32> = actors.iter().map(|a| a.id().0).collect();
        let mut heap: BinaryHeap<Entry> =
            ids.iter().enumerate().map(|(slot, &id)| Reverse((0u64, id, slot, 0))).collect();
        let mut parking = Parking::new(actors.len());

        let mut live = actors.len();
        let mut steps = 0u64;
        let mut idle_steps = 0u64;
        let mut final_time = WallNs::ZERO;
        let mut completed = true;

        while live > 0 {
            if let Some(max) = self.cfg.max_steps {
                if steps >= max {
                    completed = false;
                    break;
                }
            }
            // An empty heap with live actors: all of them are parked and
            // nothing can wake them. Polling would spin until a valve.
            let Some(mut top) = heap.peek_mut() else {
                completed = false;
                break;
            };
            let Reverse((clock, id, slot, generation)) = *top;
            if generation != parking.generation[slot] {
                PeekMut::pop(top);
                continue;
            }
            let now = WallNs(clock);
            if let Some(horizon) = self.cfg.horizon {
                if now > horizon {
                    completed = false;
                    break;
                }
            }
            parking.resume(slot, id, clock);
            let result = actors[slot].step(now);
            steps += 1;
            let cost = match &self.cfg.hooks.faults {
                Some(f) => f.actor_cost(ActorId(id), now, result.cost),
                None => result.cost,
            };
            let advance = cost.max(self.cfg.min_advance).0;
            let done = result.outcome == StepOutcome::Done;
            let park = match result.outcome {
                StepOutcome::Progress | StepOutcome::Done => None,
                StepOutcome::Idle => {
                    idle_steps += 1;
                    None
                }
                StepOutcome::Park(park) => {
                    idle_steps += 1;
                    // A fault injector rescales every poll's cost, so the
                    // poll grid is unknown: keep polling.
                    (self.cfg.hooks.faults.is_none()
                        && advance > 0
                        && parking.can_park(&park, id, &ids))
                    .then_some(park)
                }
            };
            let (bits, posted) = parking.take_announced();
            if done {
                PeekMut::pop(top);
                live -= 1;
                final_time = final_time.max(now);
                if let Some(tr) = &self.cfg.hooks.trace {
                    if tr.enabled() {
                        tr.record(now, &TraceRecord::ActorDone { actor: id });
                    }
                }
            } else {
                let next = match park {
                    // Park only a step that announced and posted nothing:
                    // its own writes may change what the next poll reads.
                    Some(park) if bits == 0 && !posted => {
                        parking.park(slot, id, clock, advance, &park)
                    }
                    _ => Some(clock + advance),
                };
                match next {
                    // Reposition in place: one sift-down on drop instead of
                    // a pop (sift-down) plus push (sift-up). When the
                    // actor's new clock is still the heap minimum — the
                    // common case for a worker streaming cheap events — the
                    // sift terminates at the root. The comparator is a
                    // total order over the entry, so the step sequence is
                    // identical to the pop/push formulation.
                    Some(at) => {
                        *top = Reverse((at, id, slot, generation));
                        drop(top);
                    }
                    None => {
                        PeekMut::pop(top);
                    }
                }
            }
            if bits != 0 || posted {
                parking.wake(&mut heap, &ids, clock, id, bits);
            }
        }

        VirtualRunStats { final_time, steps, idle_steps, completed }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cagvt_base::actor::StepResult;
    use cagvt_base::ids::ActorId;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Appends (actor, step-time) to a shared trace; finishes after `n`
    /// steps of fixed cost.
    struct Tracer {
        id: ActorId,
        cost: WallNs,
        left: u32,
        trace: Arc<parking_lot::Mutex<Vec<(u32, u64)>>>,
    }

    impl Actor for Tracer {
        fn id(&self) -> ActorId {
            self.id
        }
        fn step(&mut self, now: WallNs) -> StepResult {
            if self.left == 0 {
                return StepResult::done();
            }
            self.left -= 1;
            self.trace.lock().push((self.id.0, now.0));
            StepResult::progress(self.cost)
        }
    }

    #[test]
    fn steps_lowest_clock_first() {
        let trace = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let actors: Vec<Box<dyn Actor>> = vec![
            Box::new(Tracer { id: ActorId(0), cost: WallNs(100), left: 3, trace: trace.clone() }),
            Box::new(Tracer { id: ActorId(1), cost: WallNs(30), left: 10, trace: trace.clone() }),
        ];
        let stats = VirtualScheduler::new(VirtualConfig::default()).run(actors);
        assert!(stats.completed);
        let t = trace.lock();
        // Times must be globally non-decreasing: min-clock-first scheduling.
        for w in t.windows(2) {
            assert!(w[0].1 <= w[1].1, "out of order: {:?}", *t);
        }
        // Actor 1 (cheap steps) runs several times between actor 0's steps.
        assert_eq!(t.iter().filter(|(id, _)| *id == 1).count(), 10);
    }

    #[test]
    fn ties_break_by_actor_id_deterministically() {
        let run = || {
            let trace = Arc::new(parking_lot::Mutex::new(Vec::new()));
            let actors: Vec<Box<dyn Actor>> = (0..4)
                .map(|i| {
                    Box::new(Tracer {
                        id: ActorId(i),
                        cost: WallNs(10),
                        left: 5,
                        trace: trace.clone(),
                    }) as Box<dyn Actor>
                })
                .collect();
            VirtualScheduler::new(VirtualConfig::default()).run(actors);
            let t = trace.lock().clone();
            t
        };
        assert_eq!(run(), run(), "identical inputs must produce identical schedules");
    }

    #[test]
    fn zero_cost_steps_still_advance() {
        struct Zeno {
            id: ActorId,
            left: u32,
        }
        impl Actor for Zeno {
            fn id(&self) -> ActorId {
                self.id
            }
            fn step(&mut self, _now: WallNs) -> StepResult {
                if self.left == 0 {
                    return StepResult::done();
                }
                self.left -= 1;
                StepResult::progress(WallNs::ZERO)
            }
        }
        let stats = VirtualScheduler::new(VirtualConfig::default())
            .run(vec![Box::new(Zeno { id: ActorId(0), left: 100 })]);
        assert!(stats.completed);
        // 100 zero-cost steps advanced by min_advance each.
        assert_eq!(stats.final_time, WallNs(100 * 50));
    }

    #[test]
    fn horizon_cuts_off_runaway_actors() {
        struct Forever {
            id: ActorId,
        }
        impl Actor for Forever {
            fn id(&self) -> ActorId {
                self.id
            }
            fn step(&mut self, _now: WallNs) -> StepResult {
                StepResult::idle(WallNs(1_000))
            }
        }
        let cfg = VirtualConfig { horizon: Some(WallNs(100_000)), ..Default::default() };
        let stats = VirtualScheduler::new(cfg).run(vec![Box::new(Forever { id: ActorId(0) })]);
        assert!(!stats.completed);
        assert!(stats.idle_steps > 0);
    }

    #[test]
    fn max_steps_valve() {
        struct Forever {
            id: ActorId,
        }
        impl Actor for Forever {
            fn id(&self) -> ActorId {
                self.id
            }
            fn step(&mut self, _now: WallNs) -> StepResult {
                StepResult::progress(WallNs(1))
            }
        }
        let cfg = VirtualConfig { max_steps: Some(500), ..Default::default() };
        let stats = VirtualScheduler::new(cfg).run(vec![Box::new(Forever { id: ActorId(0) })]);
        assert!(!stats.completed);
        assert_eq!(stats.steps, 500);
    }

    #[test]
    fn fault_injector_scales_charged_cost() {
        use cagvt_base::fault::FaultInjector;

        /// Doubles every step cost of actor 0; leaves others untouched.
        struct DoubleActorZero;
        impl FaultInjector for DoubleActorZero {
            fn actor_cost(&self, actor: ActorId, _now: WallNs, cost: WallNs) -> WallNs {
                if actor == ActorId(0) {
                    WallNs(cost.0 * 2)
                } else {
                    cost
                }
            }
        }

        let run = |faults: Option<Arc<dyn FaultInjector>>| {
            let trace = Arc::new(parking_lot::Mutex::new(Vec::new()));
            let actors: Vec<Box<dyn Actor>> = vec![Box::new(Tracer {
                id: ActorId(0),
                cost: WallNs(100),
                left: 4,
                trace: trace.clone(),
            })];
            let cfg = VirtualConfig {
                hooks: Hooks { faults, ..Default::default() },
                ..Default::default()
            };
            let stats = VirtualScheduler::new(cfg).run(actors);
            assert!(stats.completed);
            stats.final_time
        };
        // Clean: steps land at 0,100,200,300; done check at 400.
        assert_eq!(run(None), WallNs(400));
        // Straggled: each 100ns step is charged 200ns.
        assert_eq!(run(Some(Arc::new(DoubleActorZero))), WallNs(800));
    }

    #[test]
    fn message_passing_respects_deliver_times() {
        use cagvt_net::Mailbox;

        // Sender posts 10 messages spaced 1us apart in simulated time with
        // 5us propagation; receiver records the clock at which it observed
        // each. Observation must never precede deliver_at.
        struct Sender {
            id: ActorId,
            mb: Arc<Mailbox<u64>>,
            next: u32,
        }
        impl Actor for Sender {
            fn id(&self) -> ActorId {
                self.id
            }
            fn step(&mut self, now: WallNs) -> StepResult {
                if self.next == 10 {
                    return StepResult::done();
                }
                let deliver_at = now + WallNs(5_000);
                self.mb.push(deliver_at, deliver_at.0);
                self.next += 1;
                StepResult::progress(WallNs(1_000))
            }
        }
        struct Receiver {
            id: ActorId,
            mb: Arc<Mailbox<u64>>,
            got: u32,
            violations: Arc<AtomicU64>,
        }
        impl Actor for Receiver {
            fn id(&self) -> ActorId {
                self.id
            }
            fn step(&mut self, now: WallNs) -> StepResult {
                if self.got == 10 {
                    return StepResult::done();
                }
                match self.mb.pop_ready(now) {
                    Some(deliver_at) => {
                        if now.0 < deliver_at {
                            self.violations.fetch_add(1, Ordering::Relaxed);
                        }
                        self.got += 1;
                        StepResult::progress(WallNs(200))
                    }
                    None => StepResult::idle(WallNs(100)),
                }
            }
        }

        let mb = Arc::new(Mailbox::new());
        let violations = Arc::new(AtomicU64::new(0));
        let actors: Vec<Box<dyn Actor>> = vec![
            Box::new(Sender { id: ActorId(0), mb: mb.clone(), next: 0 }),
            Box::new(Receiver {
                id: ActorId(1),
                mb: mb.clone(),
                got: 0,
                violations: violations.clone(),
            }),
        ];
        let stats = VirtualScheduler::new(VirtualConfig::default()).run(actors);
        assert!(stats.completed);
        assert_eq!(violations.load(Ordering::Relaxed), 0);
        assert!(mb.is_empty());
    }

    // ---- Parking ----

    use cagvt_base::actor::{Park, WakeBoard};

    /// Clock and skipped-poll count of a sleeper's resume step.
    type Resumed = Arc<parking_lot::Mutex<Option<(u64, u64)>>>;

    /// Parks on its first step (cost 150 per poll, so its poll grid is
    /// 150, 300, …) until `until` or an announcement on channel 1, then
    /// records the clock and skipped-poll count of its resume step.
    struct Sleeper {
        id: ActorId,
        board: Arc<WakeBoard>,
        until: Option<WallNs>,
        resumed: Resumed,
        parked: bool,
    }

    impl Actor for Sleeper {
        fn id(&self) -> ActorId {
            self.id
        }
        fn step(&mut self, now: WallNs) -> StepResult {
            if self.parked {
                *self.resumed.lock() = Some((now.0, self.board.take_skipped(self.id)));
                return StepResult::done();
            }
            self.parked = true;
            let park =
                Park { until: self.until, on: 1, busy: false, board: Arc::clone(&self.board) };
            StepResult::park(WallNs(150), park)
        }
    }

    /// Steps every 300 ns and announces channel 1 at its `at`-th step.
    struct Announcer {
        id: ActorId,
        board: Arc<WakeBoard>,
        at: u32,
        steps: u32,
    }

    impl Actor for Announcer {
        fn id(&self) -> ActorId {
            self.id
        }
        fn step(&mut self, _now: WallNs) -> StepResult {
            if self.steps > self.at {
                return StepResult::done();
            }
            if self.steps == self.at {
                self.board.announce(1);
            }
            self.steps += 1;
            StepResult::progress(WallNs(300))
        }
    }

    fn sleeper(id: u32, board: &Arc<WakeBoard>, until: Option<u64>) -> (Sleeper, Resumed) {
        let resumed = Arc::new(parking_lot::Mutex::new(None));
        let s = Sleeper {
            id: ActorId(id),
            board: Arc::clone(board),
            until: until.map(WallNs),
            resumed: Arc::clone(&resumed),
            parked: false,
        };
        (s, resumed)
    }

    #[test]
    fn deadline_resumes_on_the_exact_grid_instant() {
        let board = Arc::new(WakeBoard::new(1));
        let (s, resumed) = sleeper(0, &board, Some(1_000));
        let stats = VirtualScheduler::new(VirtualConfig::default()).run(vec![Box::new(s)]);
        assert!(stats.completed);
        // Polls at 150, 300, …, 900 are skipped; 1050 is the first poll at
        // or after the deadline.
        assert_eq!(*resumed.lock(), Some((1_050, 6)));
        assert_eq!((stats.steps, stats.idle_steps), (2, 1));
    }

    #[test]
    fn announcement_wakes_in_clock_then_id_order() {
        // The announcer's step at clock 300 wakes the sleeper (id 1). A
        // lower-id announcer steps before the sleeper's poll at 300, so
        // that poll sees the announcement; a higher-id one steps after it,
        // so the next poll, at 450, is the first to see it.
        for (announcer, expect) in [(0, (300, 1)), (2, (450, 2))] {
            let board = Arc::new(WakeBoard::new(3));
            let (s, resumed) = sleeper(1, &board, None);
            let a =
                Announcer { id: ActorId(announcer), board: Arc::clone(&board), at: 1, steps: 0 };
            let stats =
                VirtualScheduler::new(VirtualConfig::default()).run(vec![Box::new(s), Box::new(a)]);
            assert!(stats.completed);
            assert_eq!(*resumed.lock(), Some(expect), "announcer id {announcer}");
        }
    }

    #[test]
    fn all_parked_without_deadline_ends_incomplete() {
        let board = Arc::new(WakeBoard::new(2));
        let (a, _) = sleeper(0, &board, None);
        let (b, _) = sleeper(1, &board, None);
        let stats =
            VirtualScheduler::new(VirtualConfig::default()).run(vec![Box::new(a), Box::new(b)]);
        assert!(!stats.completed);
        assert_eq!((stats.steps, stats.idle_steps), (2, 2));
    }

    #[test]
    fn fault_injector_falls_back_to_polling() {
        let board = Arc::new(WakeBoard::new(1));
        let (s, resumed) = sleeper(0, &board, Some(1_000));
        let hooks =
            Hooks { faults: Some(Arc::new(cagvt_base::fault::NoFaults)), ..Default::default() };
        let cfg = VirtualConfig { hooks, ..Default::default() };
        let stats = VirtualScheduler::new(cfg).run(vec![Box::new(s)]);
        assert!(stats.completed);
        // Not parked: the next poll, at 150, is the resume step.
        assert_eq!(*resumed.lock(), Some((150, 0)));
    }

    /// Receives `want` messages from a mailbox, idle-polling (or parking
    /// until the head is visible) in between; counts every poll it would
    /// have made, skipped ones included.
    struct Receiver {
        mb: Arc<cagvt_net::Mailbox<u64>>,
        board: Arc<WakeBoard>,
        park: bool,
        want: usize,
        got: Arc<parking_lot::Mutex<Vec<(u64, u64)>>>,
        polls: Arc<AtomicU64>,
    }

    impl Actor for Receiver {
        fn id(&self) -> ActorId {
            ActorId(1)
        }
        fn step(&mut self, now: WallNs) -> StepResult {
            let skipped = self.board.take_skipped(ActorId(1));
            self.polls.fetch_add(skipped + 1, Ordering::Relaxed);
            if self.got.lock().len() == self.want {
                return StepResult::done();
            }
            if let Some(m) = self.mb.pop_ready(now) {
                self.got.lock().push((now.0, m));
                return StepResult::progress(WallNs(200));
            }
            if self.park {
                let park = Park {
                    until: self.mb.head_deliver_at(),
                    on: 0,
                    busy: false,
                    board: Arc::clone(&self.board),
                };
                StepResult::park(WallNs(100), park)
            } else {
                StepResult::idle(WallNs(100))
            }
        }
    }

    /// Pushes message `i` at its `i`-th step (steps every 300 ns), to be
    /// delivered `delays[i]` later, posting the receiver on a push onto
    /// the empty queue.
    struct Pusher {
        mb: Arc<cagvt_net::Mailbox<u64>>,
        board: Arc<WakeBoard>,
        delays: Vec<u64>,
        next: usize,
    }

    impl Actor for Pusher {
        fn id(&self) -> ActorId {
            ActorId(0)
        }
        fn step(&mut self, now: WallNs) -> StepResult {
            let Some(&delay) = self.delays.get(self.next) else {
                return StepResult::done();
            };
            let at = now + WallNs(delay);
            if self.mb.push(at, self.next as u64) {
                self.board.post(ActorId(1), at);
            }
            self.next += 1;
            StepResult::progress(WallNs(300))
        }
    }

    /// Receive times and total polls of a push schedule, and the steps.
    fn receive(delays: &[u64], park: bool) -> (Vec<(u64, u64)>, u64, u64) {
        let mb = Arc::new(cagvt_net::Mailbox::new());
        let board = Arc::new(WakeBoard::new(2));
        let got = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let polls = Arc::new(AtomicU64::new(0));
        let actors: Vec<Box<dyn Actor>> = vec![
            Box::new(Pusher {
                mb: Arc::clone(&mb),
                board: Arc::clone(&board),
                delays: delays.to_vec(),
                next: 0,
            }),
            Box::new(Receiver {
                mb,
                board,
                park,
                want: delays.len(),
                got: Arc::clone(&got),
                polls: Arc::clone(&polls),
            }),
        ];
        let stats = VirtualScheduler::new(VirtualConfig::default()).run(actors);
        assert!(stats.completed);
        let got = got.lock().clone();
        (got, polls.load(Ordering::Relaxed), stats.steps)
    }

    #[test]
    fn push_onto_empty_and_behind_the_head_resume_like_polling() {
        // [5_000]: one push onto the empty queue, posted while the
        // receiver is parked with no deadline. [5_000, 700]: the second
        // push lands behind the head, posts nothing, and waits for it.
        // [700, 5_000, 100]: pushes interleave with receives.
        for delays in [vec![5_000], vec![5_000, 700], vec![700, 5_000, 100]] {
            let (parked, parked_polls, parked_steps) = receive(&delays, true);
            let (polled, polled_polls, polled_steps) = receive(&delays, false);
            assert_eq!(parked, polled, "{delays:?}");
            assert_eq!(parked_polls, polled_polls, "{delays:?}");
            assert!(parked_steps < polled_steps, "{delays:?}");
        }
        // The head gates what is behind it.
        let (got, _, _) = receive(&[5_000, 700], true);
        assert_eq!(got[1].0, got[0].0 + 200, "{got:?}");
    }
}
