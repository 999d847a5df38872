//! Activities: behaviours, their execution context, and per-activity
//! runtime state.
//!
//! An active object (§1) is a remotely accessible object with its own
//! logical thread and request queue. Application code is written as a
//! [`Behavior`]: a state machine whose handlers are invoked by the
//! runtime for each served request, resolved future, or timer, and which
//! interacts with the world exclusively through [`AoCtx`] — sending
//! asynchronous calls, replying to futures, accounting compute time,
//! spawning new activities, and managing which remote references it
//! retains.
//!
//! Idleness (§4.1): an activity is **idle** iff it is not serving a
//! request, has an empty queue, and is not waiting on a future (waiting
//! is busy — "waiting for a future can only be done during the service
//! of a request"). Roots (registered objects, dummy referencers) are
//! never idle.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use dgc_simnet::rng::SimRng;
use dgc_simnet::time::{SimDuration, SimTime};
use dgc_simnet::topology::ProcId;

use dgc_core::id::AoId;
use dgc_rmi::endpoint::RmiEndpoint;

use crate::localgc::StubTable;
use crate::request::{FutureId, Reply, Request};

/// Application logic of an activity.
///
/// Handlers run atomically (one logical thread per activity). All
/// effects — messages, compute time, reference management — go through
/// the [`AoCtx`].
pub trait Behavior {
    /// Invoked once, right after the activity is created.
    fn on_start(&mut self, _ctx: &mut AoCtx<'_>) {}

    /// Serves one request from the queue.
    fn on_request(&mut self, _ctx: &mut AoCtx<'_>, _request: &Request) {}

    /// A future this activity was **waiting on** resolved. (Replies to
    /// futures that were never awaited are stored silently: a future
    /// value cannot wake an idle activity, §4.1.)
    fn on_reply(&mut self, _ctx: &mut AoCtx<'_>, _future: FutureId, _reply: &Reply) {}

    /// An application timer set through [`AoCtx::set_timer`] fired.
    fn on_timer(&mut self, _ctx: &mut AoCtx<'_>, _token: u64) {}

    /// Optional downcasting hook so drivers can read results back out of
    /// a behavior (return `Some(self)` in implementations that need it).
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

/// A no-op behavior: never sends anything, serves requests instantly.
/// Useful for leaf activities and dummy roots.
#[derive(Debug, Default, Clone, Copy)]
pub struct Inert;

impl Behavior for Inert {}

/// One deferred effect produced by a behavior handler.
pub(crate) enum Effect {
    Send {
        to: AoId,
        method: u32,
        payload_bytes: u64,
        refs: Vec<AoId>,
        future: Option<FutureId>,
        await_reply: bool,
    },
    Reply {
        future: FutureId,
        payload_bytes: u64,
        refs: Vec<AoId>,
    },
    Compute(SimDuration),
    Retain(AoId),
    Release {
        target: AoId,
        all: bool,
    },
    Spawn {
        id: AoId,
        behavior: Box<dyn Behavior>,
    },
    Timer {
        delay: SimDuration,
        token: u64,
    },
}

/// Allocates activity ids for `spawn`, shared by the whole grid.
#[derive(Debug, Clone)]
pub struct SpawnAlloc {
    next_index: Vec<u32>,
}

impl SpawnAlloc {
    /// One counter per process.
    pub fn new(procs: u32) -> Self {
        SpawnAlloc {
            next_index: vec![0; procs as usize],
        }
    }

    /// Draws a fresh id on `proc`.
    pub fn allocate(&mut self, proc: ProcId) -> AoId {
        let slot = &mut self.next_index[proc.0 as usize];
        let id = AoId::new(proc.0, *slot);
        *slot = slot.checked_add(1).expect("activity index overflow");
        id
    }
}

/// Execution context handed to behavior handlers.
///
/// Effects are buffered and applied by the runtime after the handler
/// returns, so handlers see a consistent snapshot.
pub struct AoCtx<'a> {
    me: AoId,
    now: SimTime,
    next_future_seq: &'a mut u64,
    spawn_alloc: &'a mut SpawnAlloc,
    rng: &'a mut SimRng,
    pub(crate) effects: Vec<Effect>,
}

impl<'a> AoCtx<'a> {
    pub(crate) fn new(
        me: AoId,
        now: SimTime,
        next_future_seq: &'a mut u64,
        spawn_alloc: &'a mut SpawnAlloc,
        rng: &'a mut SimRng,
    ) -> Self {
        AoCtx {
            me,
            now,
            next_future_seq,
            spawn_alloc,
            rng,
            effects: Vec::new(),
        }
    }

    /// This activity's id.
    pub fn me(&self) -> AoId {
        self.me
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Deterministic per-activity random stream.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// One-way asynchronous call (no future).
    pub fn send(&mut self, to: AoId, method: u32, payload_bytes: u64, refs: Vec<AoId>) {
        self.effects.push(Effect::Send {
            to,
            method,
            payload_bytes,
            refs,
            future: None,
            await_reply: false,
        });
    }

    /// Asynchronous call returning a future; the activity does **not**
    /// wait on it (use [`AoCtx::call_await`] for wait-by-necessity).
    pub fn call(&mut self, to: AoId, method: u32, payload_bytes: u64, refs: Vec<AoId>) -> FutureId {
        let future = self.fresh_future();
        self.effects.push(Effect::Send {
            to,
            method,
            payload_bytes,
            refs,
            future: Some(future),
            await_reply: false,
        });
        future
    }

    /// Asynchronous call whose reply the activity immediately waits on:
    /// it stays **busy** until the reply arrives (§4.1).
    pub fn call_await(
        &mut self,
        to: AoId,
        method: u32,
        payload_bytes: u64,
        refs: Vec<AoId>,
    ) -> FutureId {
        let future = self.fresh_future();
        self.effects.push(Effect::Send {
            to,
            method,
            payload_bytes,
            refs,
            future: Some(future),
            await_reply: true,
        });
        future
    }

    /// Replies to a future received in a request.
    pub fn reply(&mut self, future: FutureId, payload_bytes: u64, refs: Vec<AoId>) {
        self.effects.push(Effect::Reply {
            future,
            payload_bytes,
            refs,
        });
    }

    /// Accounts `d` of local compute time; the activity stays busy for
    /// the sum of all `compute` calls of this handler.
    pub fn compute(&mut self, d: SimDuration) {
        self.effects.push(Effect::Compute(d));
    }

    /// Locally aliases a stub for `target` (one more strong reference).
    pub fn retain(&mut self, target: AoId) {
        self.effects.push(Effect::Retain(target));
    }

    /// Drops one stub for `target`.
    pub fn release(&mut self, target: AoId) {
        self.effects.push(Effect::Release { target, all: false });
    }

    /// Drops every stub for `target`.
    pub fn release_all(&mut self, target: AoId) {
        self.effects.push(Effect::Release { target, all: true });
    }

    /// Creates a new activity on `proc`; the creator holds the first
    /// stub for it. Returns the new id immediately.
    pub fn spawn(&mut self, proc: ProcId, behavior: Box<dyn Behavior>) -> AoId {
        let id = self.spawn_alloc.allocate(proc);
        self.effects.push(Effect::Spawn { id, behavior });
        id
    }

    /// Schedules an application timer; `token` comes back in
    /// [`Behavior::on_timer`]. Serving a timer makes the activity busy,
    /// like a self-addressed request; until it fires, the timer holds
    /// the activity live, as a §4.1 dummy referencer would.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.effects.push(Effect::Timer { delay, token });
    }

    fn fresh_future(&mut self) -> FutureId {
        let seq = *self.next_future_seq;
        *self.next_future_seq += 1;
        FutureId {
            caller: self.me,
            seq,
        }
    }
}

/// Runtime state of one activity (owned by the grid driver).
pub struct Activity {
    /// The activity's id.
    pub id: AoId,
    /// Application logic.
    pub behavior: Box<dyn Behavior>,
    /// Pending requests, FIFO service.
    pub queue: VecDeque<Request>,
    /// Number of outstanding serve-completion events (busy while > 0).
    pub pending_serves: u32,
    /// Futures this activity is waiting on (busy while non-empty).
    pub waiting: BTreeSet<u64>,
    /// Replies that arrived for futures never awaited.
    pub stored_replies: BTreeMap<u64, Reply>,
    /// Held stubs (the local reference graph out-edges).
    pub stubs: StubTable,
    /// The RMI baseline's endpoint, when that is the collector (the
    /// complete DGC's endpoint lives in the process's node kernel).
    pub rmi: Option<Box<RmiEndpoint>>,
    /// Roots are never idle: registered objects and dummy referencers
    /// (§4.1).
    pub is_root: bool,
    /// Application timers set and not yet fired. Each holds the activity
    /// as a §4.1 dummy referencer would: it may be idle, but it is live
    /// and its collector treats it as busy.
    pub pending_timers: u32,
    /// Driver-pinned busyness (`Grid::set_busy`): an external client is
    /// mid-call on this activity. Orthogonal to `is_root`, so pinning
    /// and releasing never disturbs registry/root status.
    pub pinned_busy: bool,
    /// Idleness at the last refresh, to detect busy→idle transitions.
    pub was_idle: bool,
    /// Future sequence counter.
    pub next_future_seq: u64,
    /// Per-activity random stream.
    pub rng: SimRng,
}

impl Activity {
    /// Creates an activity shell.
    pub fn new(id: AoId, behavior: Box<dyn Behavior>, is_root: bool, rng: SimRng) -> Self {
        Activity {
            id,
            behavior,
            queue: VecDeque::new(),
            pending_serves: 0,
            waiting: BTreeSet::new(),
            stored_replies: BTreeMap::new(),
            stubs: StubTable::new(),
            rmi: None,
            is_root,
            pending_timers: 0,
            pinned_busy: false,
            // Start "busy": the runtime refreshes idleness right after
            // on_start, producing the busy→idle transition if warranted.
            was_idle: false,
            next_future_seq: 0,
            rng,
        }
    }

    /// §4.1 idleness: not serving, empty queue, not waiting, not a root,
    /// not pinned busy by the driver.
    pub fn is_idle(&self) -> bool {
        !self.is_root
            && !self.pinned_busy
            && self.pending_serves == 0
            && self.waiting.is_empty()
            && self.queue.is_empty()
    }

    /// True if a new request can start being served now.
    pub fn can_serve_next(&self) -> bool {
        self.pending_serves == 0 && self.waiting.is_empty() && !self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::from_seed(1)
    }

    #[test]
    fn spawn_alloc_is_per_process_sequential() {
        let mut a = SpawnAlloc::new(3);
        assert_eq!(a.allocate(ProcId(0)), AoId::new(0, 0));
        assert_eq!(a.allocate(ProcId(0)), AoId::new(0, 1));
        assert_eq!(a.allocate(ProcId(2)), AoId::new(2, 0));
    }

    #[test]
    fn ctx_allocates_distinct_futures() {
        let mut seq = 0u64;
        let mut alloc = SpawnAlloc::new(1);
        let mut r = rng();
        let mut ctx = AoCtx::new(AoId::new(0, 0), SimTime::ZERO, &mut seq, &mut alloc, &mut r);
        let f1 = ctx.call(AoId::new(0, 1), 1, 0, vec![]);
        let f2 = ctx.call_await(AoId::new(0, 1), 1, 0, vec![]);
        assert_ne!(f1, f2);
        assert_eq!(f1.caller, AoId::new(0, 0));
        assert_eq!(ctx.effects.len(), 2);
        assert_eq!(seq, 2);
    }

    #[test]
    fn ctx_spawn_returns_id_immediately() {
        let mut seq = 0u64;
        let mut alloc = SpawnAlloc::new(2);
        let mut r = rng();
        let mut ctx = AoCtx::new(AoId::new(0, 0), SimTime::ZERO, &mut seq, &mut alloc, &mut r);
        let id = ctx.spawn(ProcId(1), Box::new(Inert));
        assert_eq!(id, AoId::new(1, 0));
        assert_eq!(ctx.effects.len(), 1);
    }

    #[test]
    fn idleness_definition() {
        let mut a = Activity::new(AoId::new(0, 0), Box::new(Inert), false, rng());
        assert!(a.is_idle());
        a.pending_serves = 1;
        assert!(!a.is_idle());
        a.pending_serves = 0;
        a.waiting.insert(3);
        assert!(!a.is_idle(), "waiting on a future is busy (§4.1)");
        a.waiting.clear();
        a.queue.push_back(Request {
            sender: AoId::new(0, 1),
            method: 0,
            payload_bytes: 0,
            refs: vec![],
            future: None,
        });
        assert!(!a.is_idle());
    }

    #[test]
    fn roots_are_never_idle() {
        let a = Activity::new(AoId::new(0, 0), Box::new(Inert), true, rng());
        assert!(!a.is_idle());
    }

    #[test]
    fn serve_next_blocked_by_waiting() {
        let mut a = Activity::new(AoId::new(0, 0), Box::new(Inert), false, rng());
        a.queue.push_back(Request {
            sender: AoId::new(0, 1),
            method: 0,
            payload_bytes: 0,
            refs: vec![],
            future: None,
        });
        assert!(a.can_serve_next());
        a.waiting.insert(1);
        assert!(!a.can_serve_next(), "wait-by-necessity blocks the queue");
    }
}
