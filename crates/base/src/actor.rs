//! The actor abstraction both execution substrates drive.
//!
//! Every engine participant — a worker thread processing events, a dedicated
//! MPI thread pumping the network — is an [`Actor`]: a state machine whose
//! [`Actor::step`] performs one bounded unit of work and reports what it
//! cost in simulated wall-clock time.
//!
//! * The **virtual scheduler** (`cagvt-exec`) always steps the actor with
//!   the smallest virtual clock and advances that clock by the reported
//!   cost, producing the interleaving a real cluster would exhibit under
//!   those costs — deterministically, on any host.
//! * The **thread runtime** runs `loop {{ step() }}` on one OS thread per
//!   actor; there the reported cost is realized by actually spinning for
//!   the compute portion.
//!
//! Steps must be *non-blocking*: an actor that is waiting (for a message,
//! for a barrier) returns [`StepOutcome::Idle`] and will be polled again
//! later, with its clock advanced by an idle-poll cost. This polled style is
//! what lets the identical algorithm code run under both substrates.
//!
//! ## Parking
//!
//! Most polls of a waiting actor change nothing. An actor that knows this
//! may return [`StepOutcome::Park`] instead of `Idle`. The step itself is an
//! ordinary poll, and its [`Park`] promises that every further poll, at the
//! instants `c + n·p` the scheduler would step it (`c` the next poll
//! instant, `p` the poll's clock advance), would repeat this one exactly —
//! same cost, same outcome, no shared writes — until one of these happens:
//!
//! * virtual time reaches [`Park::until`] (a known deadline, such as the
//!   head of an inbound queue becoming visible);
//! * a wake channel in [`Park::on`] is announced on the [`WakeBoard`]
//!   ([`WakeBoard::announce`]), by any step that wrote shared state the
//!   parked poll reads;
//! * a deadline is posted for the actor ([`WakeBoard::post`]), by a step
//!   that pushed a message onto its empty inbound queue.
//!
//! The virtual scheduler then stops stepping the actor and resumes it at
//! the exact poll instant it would have reached: the first grid instant at
//! or after the deadline, or the first `(clock, id)` after the step that
//! announced or posted. It counts the polls it skipped and leaves the count
//! on the board; the actor collects it with [`WakeBoard::take_skipped`] at
//! its next step and credits whatever per-poll counters it keeps. A park is
//! always allowed to fall back to polling: the thread runtime, a scheduler
//! with a fault injector (which rescales each poll's cost), or a park whose
//! own step announced something poll the actor again, and it then collects
//! zero skipped polls. The thread runtime runs a [`Park::busy`] poll (a wait
//! charged as work, such as a worker held at a barrier) as
//! [`StepOutcome::Progress`], realizing its cost, and any other park as
//! `Idle`; the virtual scheduler counts every park step as idle.

use crate::ids::ActorId;
use crate::time::WallNs;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// What a step accomplished.
#[derive(Clone, PartialEq, Debug)]
pub enum StepOutcome {
    /// Useful work was done; poll again as soon as the clock allows.
    Progress,
    /// Nothing to do right now (empty queues, waiting at a barrier). The
    /// scheduler still re-polls, charging the idle-poll cost, because
    /// wake-up conditions are observed by polling shared state.
    Idle,
    /// An idle poll that will repeat exactly until the [`Park`]'s wake
    /// condition holds; the scheduler may stop polling until then (see the
    /// module docs). Schedulers that do not park treat it as `Idle`.
    Park(Park),
    /// The actor has observed global termination and will never make
    /// progress again.
    Done,
}

/// Result of one actor step.
#[derive(Clone, Debug)]
pub struct StepResult {
    /// Simulated wall-clock cost of the step. The virtual scheduler
    /// advances the actor's clock by `cost` (using a configured minimum for
    /// zero-cost idle polls so virtual time always advances).
    pub cost: WallNs,
    pub outcome: StepOutcome,
}

impl StepResult {
    #[inline]
    pub fn progress(cost: WallNs) -> Self {
        StepResult { cost, outcome: StepOutcome::Progress }
    }

    #[inline]
    pub fn idle(cost: WallNs) -> Self {
        StepResult { cost, outcome: StepOutcome::Idle }
    }

    #[inline]
    pub fn park(cost: WallNs, park: Park) -> Self {
        StepResult { cost, outcome: StepOutcome::Park(park) }
    }

    #[inline]
    pub fn done() -> Self {
        StepResult { cost: WallNs::ZERO, outcome: StepOutcome::Done }
    }
}

/// The wake condition of a parked poll.
#[derive(Clone, Debug)]
pub struct Park {
    /// Resume no later than the first poll instant at or after this one.
    pub until: Option<WallNs>,
    /// Wake channels (a bit mask, bits `0..63`) whose announcement ends the
    /// wait.
    pub on: u64,
    /// The poll's cost is a busy wait, not an idle poll: a runtime that
    /// does not park runs it as [`StepOutcome::Progress`] instead of
    /// [`StepOutcome::Idle`].
    pub busy: bool,
    /// Where the wake sources announce and the skipped polls are credited.
    pub board: Arc<WakeBoard>,
}

impl PartialEq for Park {
    fn eq(&self, other: &Park) -> bool {
        self.until == other.until
            && self.on == other.on
            && self.busy == other.busy
            && Arc::ptr_eq(&self.board, &other.board)
    }
}

/// Announcement bit reserved for [`WakeBoard::post`].
const POSTED: u64 = 1 << 63;

/// Shared state between parked actors, the steps that wake them, and the
/// scheduler that parks them. Covers actors `0..actors` by [`ActorId`].
///
/// Announcing and posting are cheap when nobody is parked: an announcement
/// is one atomic `or`, and a post for an actor that is not parked is one
/// atomic load.
#[derive(Debug)]
pub struct WakeBoard {
    /// Channels announced (plus [`POSTED`]) since the scheduler last looked.
    announced: AtomicU64,
    /// Per actor: parked by a scheduler right now.
    parked: Box<[AtomicBool]>,
    /// Per actor: polls skipped during its last park, not yet collected.
    skipped: Box<[AtomicU64]>,
    /// Deadlines posted for parked actors since the scheduler last looked.
    posts: Mutex<Vec<(ActorId, WallNs)>>,
}

impl WakeBoard {
    pub fn new(actors: usize) -> Self {
        WakeBoard {
            announced: AtomicU64::new(0),
            parked: (0..actors).map(|_| AtomicBool::new(false)).collect(),
            skipped: (0..actors).map(|_| AtomicU64::new(0)).collect(),
            posts: Mutex::new(Vec::new()),
        }
    }

    /// Number of actors the board covers (ids `0..actors`).
    pub fn actors(&self) -> usize {
        self.parked.len()
    }

    /// Announce a shared write on `channels`: every actor parked on one of
    /// them resumes at its first poll instant after the announcing step.
    #[inline]
    pub fn announce(&self, channels: u64) {
        debug_assert_eq!(channels & POSTED, 0, "bit 63 is reserved");
        self.announced.fetch_or(channels, Ordering::AcqRel);
    }

    /// A message for `actor` becomes visible at `at` on a queue that was
    /// empty: if the actor is parked, it resumes no later than its first
    /// poll instant at or after `at`.
    #[inline]
    pub fn post(&self, actor: ActorId, at: WallNs) {
        let Some(parked) = self.parked.get(actor.0 as usize) else { return };
        if parked.load(Ordering::Acquire) {
            self.posts.lock().expect("wake posts poisoned").push((actor, at));
            self.announced.fetch_or(POSTED, Ordering::AcqRel);
        }
    }

    /// Polls the scheduler skipped during `actor`'s last park (zero if it
    /// was not parked). Resets the count.
    #[inline]
    pub fn take_skipped(&self, actor: ActorId) -> u64 {
        self.skipped.get(actor.0 as usize).map_or(0, |s| s.swap(0, Ordering::AcqRel))
    }

    // Scheduler side.

    /// Channels announced since the last call, and whether deadlines were
    /// posted (drain them with [`Self::drain_posts`]).
    #[inline]
    pub fn take_announced(&self) -> (u64, bool) {
        if self.announced.load(Ordering::Acquire) == 0 {
            return (0, false);
        }
        let bits = self.announced.swap(0, Ordering::AcqRel);
        (bits & !POSTED, bits & POSTED != 0)
    }

    /// Move the posted deadlines into `out`.
    pub fn drain_posts(&self, out: &mut Vec<(ActorId, WallNs)>) {
        out.append(&mut self.posts.lock().expect("wake posts poisoned"));
    }

    /// Mark `actor` parked (posts for it are recorded) or resumed.
    pub fn set_parked(&self, actor: ActorId, parked: bool) {
        self.parked[actor.0 as usize].store(parked, Ordering::Release);
    }

    /// Leave the skipped-poll count of `actor`'s park for it to collect.
    pub fn set_skipped(&self, actor: ActorId, polls: u64) {
        self.skipped[actor.0 as usize].store(polls, Ordering::Release);
    }
}

/// A deterministic, non-blocking state machine driven by a scheduler.
pub trait Actor: Send {
    /// Dense global identifier; also the deterministic tie-break when two
    /// actors' clocks are equal under the virtual scheduler.
    fn id(&self) -> ActorId;

    /// Perform one bounded unit of work at simulated wall-clock `now`.
    fn step(&mut self, now: WallNs) -> StepResult;

    /// Human-readable label for traces and error messages.
    fn label(&self) -> String {
        format!("actor{}", self.id().0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter {
        id: ActorId,
        left: u32,
    }

    impl Actor for Counter {
        fn id(&self) -> ActorId {
            self.id
        }
        fn step(&mut self, _now: WallNs) -> StepResult {
            if self.left == 0 {
                return StepResult::done();
            }
            self.left -= 1;
            StepResult::progress(WallNs(10))
        }
    }

    #[test]
    fn step_results_carry_cost_and_outcome() {
        let mut a = Counter { id: ActorId(0), left: 2 };
        let r = a.step(WallNs::ZERO);
        assert_eq!(r.outcome, StepOutcome::Progress);
        assert_eq!(r.cost, WallNs(10));
        a.step(WallNs(10));
        assert_eq!(a.step(WallNs(20)).outcome, StepOutcome::Done);
        assert_eq!(a.label(), "actor0");
    }

    #[test]
    fn board_records_posts_only_for_parked_actors() {
        let board = WakeBoard::new(2);
        board.post(ActorId(0), WallNs(10));
        board.post(ActorId(7), WallNs(10)); // not covered: ignored
        assert_eq!(board.take_announced(), (0, false));
        board.set_parked(ActorId(1), true);
        board.post(ActorId(1), WallNs(20));
        board.announce(0b10);
        assert_eq!(board.take_announced(), (0b10, true));
        assert_eq!(board.take_announced(), (0, false));
        let mut posts = Vec::new();
        board.drain_posts(&mut posts);
        assert_eq!(posts, vec![(ActorId(1), WallNs(20))]);
        board.set_skipped(ActorId(1), 5);
        assert_eq!(board.take_skipped(ActorId(1)), 5);
        assert_eq!(board.take_skipped(ActorId(1)), 0);
        assert_eq!(board.take_skipped(ActorId(9)), 0);
    }

    #[test]
    fn idle_constructor() {
        let r = StepResult::idle(WallNs(5));
        assert_eq!(r.outcome, StepOutcome::Idle);
        assert_eq!(r.cost, WallNs(5));
    }
}
