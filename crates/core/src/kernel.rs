//! The node kernel: one hosted-activity table, one set of TTB timers
//! and one DGC dispatch path for every host.
//!
//! A *host* — the socket runtime's event loop, the thread runtime's
//! node thread, the in-memory [`Harness`](crate::harness::Harness) — owns
//! a transport and a clock; what it hosts lives here. [`NodeKernel`] is
//! sans-io like the [`DgcState`] it drives: it never reads a clock (every
//! timed entry point takes `now`), never sends, and is the only code
//! that steps a hosted `DgcState`. The host turns what the kernel emits
//! into its own wire shape and converts [`NodeKernel::next_tick`] back
//! into whatever it sleeps on.
//!
//! Emitted units stay in the pooled buffers they were produced into:
//! [`NodeKernel::tick_due`] and [`NodeKernel::on_message`] hand the
//! filled [`SweepPools`] out, the host drains them straight into its
//! router ([`SweepPools::drain_units`]) and hands them back with
//! [`NodeKernel::recycle`], so a warm node allocates nothing per unit.
//! (By value, because the host's router needs the whole host mutably
//! while it drains.)
//!
//! Only a tick terminates an activity (Algorithm 2 — a consensus makes
//! it *dying*, and the TTA wait ends on a later tick), so `tick_due` is
//! where endpoints leave the table: by the time the host sees an
//! [`Action::Terminate`] the endpoint and its timer are gone, and a
//! later message to it is "no such target".
//!
//! The timers are one due-time index of `(next_tick, id)`, one entry per
//! hosted endpoint: [`NodeKernel::next_tick`] reads its first entry and
//! [`NodeKernel::tick_due`] pops only the due ones, so a loop turn with
//! nothing due touches no endpoint. An activity beats one TTB after it
//! is spawned and every TTB after that — except that a **new reference
//! edge beats now**: [`NodeKernel::add_ref`] makes the referencer due at
//! once, so the edge's first heartbeat leaves on the turn that created
//! it instead of up to one TTB later, and the cadence restarts from
//! there. Running Algorithm 2 early is safe: its every check compares
//! elapsed time with TTA or TTB, and an early beat only shortens a gap.
//!
//! **A dying endpoint's timer is its TTA deadline.** It sends nothing
//! while it waits, so instead of ticking every TTB its one index entry
//! moves to `since + TTA` ([`DgcState::dying_deadline`]) — on the tick
//! that detects the consensus, and in [`NodeKernel::on_response`] when a
//! propagated consensus arrives between ticks — and the tick at that
//! instant terminates it. A member that learns the consensus from a
//! response therefore goes exactly TTA later, not on the first cadence
//! tick after that, up to one TTB late.

use std::collections::{BTreeMap, BTreeSet};

use crate::config::DgcConfig;
use crate::id::AoId;
use crate::message::{Action, DgcMessage, DgcResponse, TerminateReason};
use crate::protocol::DgcState;
use crate::sweep::{sweep_sharded, SweepPools};
use crate::telemetry::DgcObs;
use crate::units::{Dur, Time};

/// A recorded termination, as the socket and thread runtimes show it
/// to their drivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Terminated {
    /// Which activity ended.
    pub ao: AoId,
    /// Why.
    pub reason: TerminateReason,
}

struct Endpoint {
    state: DgcState,
    idle: bool,
    next_tick: Time,
}

/// When a TTB tick that was scheduled for `scheduled` and ran at `now`
/// fires next. Re-arming from the *scheduled* instant keeps the period
/// exact — re-arming from `now` would add every wake-up's lateness to
/// it, forever, and the §4.2 bound is stated over a heartbeat that
/// leaves every TTB. A host that is a whole period or more behind (a
/// pause, a stall) restarts the cadence from `now` instead, so it never
/// fires a burst of ticks to catch up.
fn rearm(scheduled: Time, now: Time, ttb: Dur) -> Time {
    let next = scheduled + ttb;
    if next > now {
        next
    } else {
        now + ttb
    }
}

/// When an endpoint that has just been ticked at `now` is due next: its
/// TTA deadline while dying, the TTB cadence ([`rearm`]) otherwise.
fn next_due(ep: &Endpoint, now: Time) -> Time {
    ep.state
        .dying_deadline()
        .unwrap_or_else(|| rearm(ep.next_tick, now, ep.state.current_ttb()))
}

/// Moves `id`'s one index entry from `ep.next_tick` to `at`.
fn reschedule(timers: &mut BTreeSet<(Time, AoId)>, id: AoId, ep: &mut Endpoint, at: Time) {
    timers.remove(&(ep.next_tick, id));
    ep.next_tick = at;
    timers.insert((at, id));
}

/// The hosted endpoints, densely packed in no particular order, and
/// where each activity's endpoint sits. An endpoint stays in its slot
/// while it lives — ticks mutate it in place — and moves only when a
/// termination swaps the last endpoint into the freed slot.
#[derive(Default)]
struct Table {
    slots: Vec<Endpoint>,
    slot_of: BTreeMap<AoId, usize>,
}

impl Table {
    fn len(&self) -> usize {
        self.slots.len()
    }

    fn contains(&self, id: AoId) -> bool {
        self.slot_of.contains_key(&id)
    }

    fn get_mut(&mut self, id: AoId) -> Option<&mut Endpoint> {
        let slot = *self.slot_of.get(&id)?;
        self.slots.get_mut(slot)
    }

    /// Hosts `ep` as `id`, returning the endpoint it replaced.
    fn insert(&mut self, id: AoId, ep: Endpoint) -> Option<Endpoint> {
        if let Some(old) = self.get_mut(id) {
            return Some(std::mem::replace(old, ep));
        }
        self.slot_of.insert(id, self.slots.len());
        self.slots.push(ep);
        None
    }

    fn remove(&mut self, id: AoId) {
        let Some(slot) = self.slot_of.remove(&id) else {
            return;
        };
        if slot < self.slots.len() {
            self.slots.swap_remove(slot);
            if let Some(moved) = self.slots.get(slot) {
                self.slot_of.insert(moved.state.id(), slot);
            }
        }
    }

    /// The endpoints in `slots` (ascending, distinct), borrowed at once
    /// and ordered by activity id.
    fn many_mut(&mut self, slots: &[usize]) -> Vec<&mut Endpoint> {
        let mut out = Vec::with_capacity(slots.len());
        let mut rest = self.slots.as_mut_slice();
        let mut skipped = 0;
        for &slot in slots {
            let Some((_, tail)) = std::mem::take(&mut rest).split_at_mut_checked(slot - skipped)
            else {
                break;
            };
            let Some((ep, tail)) = tail.split_first_mut() else {
                break;
            };
            out.push(ep);
            rest = tail;
            skipped = slot + 1;
        }
        out.sort_unstable_by_key(|ep| ep.state.id());
        out
    }
}

/// Everything one node hosts, and when each of them beats next.
pub struct NodeKernel {
    table: Table,
    /// The due-time index: exactly one `(next_tick, id)` per hosted
    /// endpoint, so the earliest beat is the first entry.
    timers: BTreeSet<(Time, AoId)>,
    /// TTB sweep fan-out (`DGC_SWEEP_SHARDS` / `NetConfig::sweep_shards`).
    shards: usize,
    /// Per-shard scratch and unit buffers, reused sweep after sweep and
    /// message after message.
    pools: SweepPools,
    /// `tick_due`'s reused lists: the due endpoints' slots, then the
    /// ids of those that terminated.
    due: Vec<usize>,
    dead: Vec<AoId>,
}

impl NodeKernel {
    /// An empty kernel whose TTB sweeps fan out over `shards` workers
    /// (`1`: inline, no thread).
    pub fn new(shards: usize) -> Self {
        NodeKernel {
            table: Table::default(),
            timers: BTreeSet::new(),
            shards,
            pools: SweepPools::new(),
            due: Vec::new(),
            dead: Vec::new(),
        }
    }

    /// Hosts a new activity, initially busy. Its first beat is one TTB
    /// from `now` — or sooner, on the turn it gains its first reference
    /// edge ([`add_ref`](Self::add_ref)) — and every TTB after that.
    /// `obs` attaches the hosting node's telemetry handles. Spawning a
    /// hosted id replaces its endpoint and its timer.
    pub fn spawn(&mut self, id: AoId, now: Time, config: DgcConfig, obs: Option<DgcObs>) {
        let mut state = DgcState::new(id, now, config);
        if let Some(obs) = obs {
            state.set_obs(obs);
        }
        let next_tick = now + config.ttb;
        let ep = Endpoint {
            state,
            idle: false,
            next_tick,
        };
        if let Some(old) = self.table.insert(id, ep) {
            self.timers.remove(&(old.next_tick, id));
        }
        self.timers.insert((next_tick, id));
    }

    /// True while `id` is hosted here (spawned and not yet terminated).
    pub fn hosts(&self, id: AoId) -> bool {
        self.table.contains(id)
    }

    /// How many activities are hosted.
    pub fn hosted(&self) -> usize {
        self.table.len()
    }

    /// Declares `id` idle or busy; a busy→idle transition bumps the
    /// activity clock exactly as the middleware would.
    pub fn set_idle(&mut self, now: Time, id: AoId, idle: bool) {
        if let Some(ep) = self.table.get_mut(id) {
            if idle && !ep.idle {
                ep.state.on_became_idle(now);
            }
            ep.idle = idle;
        }
    }

    /// Creates the reference edge `from → to` (stub deserialization).
    /// A new edge beats now: `from` becomes due at `now`, so the next
    /// [`tick_due`](Self::tick_due) sends the edge's first heartbeat,
    /// and the TTB cadence continues from that beat. Re-deserializing
    /// an edge `from` already has leaves its timer alone.
    pub fn add_ref(&mut self, now: Time, from: AoId, to: AoId) {
        let Some(ep) = self.table.get_mut(from) else {
            return;
        };
        if ep.state.on_stub_deserialized(to) && ep.next_tick > now {
            reschedule(&mut self.timers, from, ep, now);
        }
    }

    /// Removes the reference edge `from → to` (all stubs collected).
    pub fn drop_ref(&mut self, from: AoId, to: AoId) {
        if let Some(ep) = self.table.get_mut(from) {
            ep.state.on_stubs_collected(to);
        }
    }

    /// Delivers a DGC message to `to`. `None` means no such target —
    /// never hosted here, or already terminated — and the host owes the
    /// sender a send failure; otherwise the response is in the returned
    /// pools (drain, then [`recycle`](Self::recycle)).
    pub fn on_message(&mut self, now: Time, to: AoId, message: &DgcMessage) -> Option<SweepPools> {
        let ep = self.table.get_mut(to)?;
        let mut out = std::mem::take(&mut self.pools);
        ep.state.on_message_into(now, message, out.unit_buf());
        Some(out)
    }

    /// Delivers the DGC response `from` sent to `to`; returns what `to`
    /// wants done (nothing if it is not hosted). A response that
    /// propagates a consensus makes `to` dying, and its timer moves to
    /// the end of its TTA wait.
    pub fn on_response(
        &mut self,
        now: Time,
        from: AoId,
        to: AoId,
        response: &DgcResponse,
    ) -> Vec<Action> {
        let Some(ep) = self.table.get_mut(to) else {
            return Vec::new();
        };
        let actions = ep.state.on_response(now, from, response, ep.idle);
        if let Some(deadline) = ep.state.dying_deadline() {
            reschedule(&mut self.timers, to, ep, deadline);
        }
        actions
    }

    /// A message from `holder` to `target` could not be delivered:
    /// `holder` drops the edge.
    pub fn on_send_failure(&mut self, holder: AoId, target: AoId) {
        if let Some(ep) = self.table.get_mut(holder) {
            ep.state.on_send_failure(target);
        }
    }

    /// The whole node `node` departed: every hosted activity forgets
    /// the referencers and referenced activities it had there.
    pub fn on_node_dead(&mut self, node: u32) {
        for ep in &mut self.table.slots {
            ep.state.on_node_dead(node);
        }
    }

    /// Runs every endpoint whose TTB tick is due at `now`, as **one
    /// batched sweep**: the due entries leave the index, their
    /// endpoints are ticked in place through `on_tick_into` in ascending
    /// activity-id order (across the configured shards), each survivor
    /// is re-armed — by [`rearm`], or at its TTA deadline if it is
    /// dying — and re-indexed, the terminated ones are removed. The
    /// returned pools hold every emitted unit in exactly
    /// the order a sequential sweep would have produced — all of a
    /// sweep's units reach the host before it routes any, which is what
    /// lets its egress coalesce a whole sweep into one frame. Drain
    /// them, then [`recycle`](Self::recycle).
    pub fn tick_due(&mut self, now: Time) -> SweepPools {
        let mut out = std::mem::take(&mut self.pools);
        self.due.clear();
        while let Some(&(at, id)) = self.timers.first() {
            if at > now {
                break;
            }
            self.timers.pop_first();
            self.due.extend(self.table.slot_of.get(&id));
        }
        if self.due.is_empty() {
            return out;
        }
        self.due.sort_unstable();
        self.due.dedup();
        let mut due = self.table.many_mut(&self.due);
        sweep_sharded(&mut due, self.shards, &mut out, |ep, scratch, units| {
            ep.state.on_tick_into(now, ep.idle, scratch, units);
            ep.next_tick = next_due(ep, now);
        });
        for ep in due {
            let id = ep.state.id();
            if ep.state.is_dead() {
                self.dead.push(id);
            } else {
                self.timers.insert((ep.next_tick, id));
            }
        }
        for id in self.dead.drain(..) {
            self.table.remove(id);
        }
        out
    }

    /// Takes drained pools back so the next sweep or message reuses
    /// their allocations.
    pub fn recycle(&mut self, pools: SweepPools) {
        self.pools = pools;
    }

    /// The earliest instant a hosted activity is due to beat; `None`
    /// when nothing is hosted.
    pub fn next_tick(&self) -> Option<Time> {
        self.timers.first().map(|&(at, _)| at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::SweepUnit;

    const TTB: Dur = Dur::from_millis(100);

    fn cfg() -> DgcConfig {
        DgcConfig::builder()
            .ttb(TTB)
            .tta(Dur::from_millis(250))
            .max_comm(Dur::from_millis(20))
            .build()
    }

    fn ao(index: u32) -> AoId {
        AoId::new(0, index)
    }

    /// `tick_due` with the pools drained and handed back.
    fn tick(k: &mut NodeKernel, now: Time) -> Vec<SweepUnit> {
        let mut out = k.tick_due(now);
        let units: Vec<SweepUnit> = out.drain_units().collect();
        k.recycle(out);
        units
    }

    fn heartbeats_to(units: &[SweepUnit], node: u32) -> usize {
        units
            .iter()
            .filter(|u| matches!(u.action, Action::SendMessage { to, .. } if to.node == node))
            .count()
    }

    #[test]
    fn rearm_keeps_the_scheduled_cadence() {
        let scheduled = Time::from_secs(5);
        // On time.
        assert_eq!(rearm(scheduled, scheduled, TTB), scheduled + TTB);
        // Late by less than a period: the lateness must not leak into
        // the period (`now + ttb` here is the drift this replaces).
        let late = scheduled + Dur::from_millis(3);
        assert_eq!(rearm(scheduled, late, TTB), scheduled + TTB);
        // A whole period or more behind: restart from now, no burst.
        let stalled = scheduled + TTB;
        assert_eq!(rearm(scheduled, stalled, TTB), stalled + TTB);
        let paused = scheduled + Dur::from_millis(750);
        assert_eq!(rearm(scheduled, paused, TTB), paused + TTB);
    }

    /// A host that wakes 3 ms late every period must not stretch the
    /// period: the k-th tick stays scheduled at `first + k·TTB`.
    #[test]
    fn late_wakeups_do_not_drift_the_heartbeat() {
        let mut k = NodeKernel::new(1);
        k.spawn(ao(0), Time::ZERO, cfg(), None); // busy: beats forever
        let first = Time::ZERO + TTB;
        for period in 0..100 {
            let scheduled = first + TTB.saturating_mul(period);
            assert_eq!(k.next_tick(), Some(scheduled), "tick {period}");
            tick(&mut k, scheduled + Dur::from_millis(3));
        }
    }

    #[test]
    fn message_to_an_absent_id_is_no_such_target() {
        let mut k = NodeKernel::new(1);
        k.spawn(ao(0), Time::ZERO, cfg(), None);
        k.add_ref(Time::ZERO, ao(0), AoId::new(1, 0));
        let now = Time::ZERO + TTB;
        let beat = tick(&mut k, now);
        let Some(Action::SendMessage { message, .. }) = beat.first().map(|u| &u.action) else {
            panic!("a busy referencer beats: {beat:?}");
        };
        let before = k.next_tick();
        // Never hosted — and a misrouted id that shares a hosted
        // activity's index must not reach that activity either.
        for absent in [ao(7), AoId::new(3, 0)] {
            assert!(k.on_message(now, absent, message).is_none());
        }
        assert_eq!((k.hosted(), k.next_tick()), (1, before));
        assert!(tick(&mut k, now).is_empty(), "nothing was emitted");
    }

    #[test]
    fn terminate_removes_the_endpoint_and_its_timer() {
        let mut k = NodeKernel::new(1);
        k.spawn(ao(0), Time::ZERO, cfg(), None);
        k.spawn(ao(1), Time::ZERO, cfg(), None);
        k.add_ref(Time::ZERO, ao(1), ao(0));
        let beat = tick(&mut k, Time::ZERO + TTB);
        let Some(Action::SendMessage { message, .. }) = beat.first().map(|u| &u.action) else {
            panic!("ao 1 beats toward ao 0: {beat:?}");
        };
        k.set_idle(Time::ZERO + TTB, ao(1), true);
        // Nobody references ao 1: silent for more than TTA, it goes.
        let units = tick(&mut k, Time::from_secs(1));
        assert!(units.iter().any(|u| u.from == ao(1)
            && matches!(
                u.action,
                Action::Terminate {
                    reason: TerminateReason::Acyclic
                }
            )));
        assert!(!k.hosts(ao(1)) && k.hosts(ao(0)));
        assert_eq!(k.hosted(), 1);
        assert_eq!(k.next_tick(), Some(Time::from_secs(1) + TTB), "ao 0's");
        assert!(k.on_message(Time::from_secs(1), ao(1), message).is_none());
        assert!(k.on_message(Time::from_secs(1), ao(0), message).is_some());
    }

    #[test]
    fn node_death_reaches_every_hosted_endpoint() {
        let mut k = NodeKernel::new(1);
        for i in 0..5 {
            k.spawn(ao(i), Time::ZERO, cfg(), None);
            k.add_ref(Time::ZERO, ao(i), AoId::new(9, i));
            k.add_ref(Time::ZERO, ao(i), AoId::new(2, i));
        }
        let units = tick(&mut k, Time::ZERO + TTB);
        assert_eq!((heartbeats_to(&units, 9), heartbeats_to(&units, 2)), (5, 5));
        k.on_node_dead(9);
        let units = tick(&mut k, Time::ZERO + TTB.saturating_mul(2));
        assert_eq!((heartbeats_to(&units, 9), heartbeats_to(&units, 2)), (0, 5));
    }

    #[test]
    fn sharded_sweep_emits_the_sequential_unit_order() {
        let script = |shards: usize| {
            let mut k = NodeKernel::new(shards);
            // Spawned out of order: the sweep order is the id order.
            for i in [5, 2, 7, 0, 3, 6, 1, 4] {
                k.spawn(ao(i), Time::ZERO, cfg(), None);
                for t in 0..=i % 3 {
                    k.add_ref(Time::ZERO, ao(i), AoId::new(1, t));
                }
            }
            k.set_idle(Time::ZERO, ao(4), true);
            let mut units = tick(&mut k, Time::ZERO + TTB);
            units.extend(tick(&mut k, Time::from_secs(1)));
            units
        };
        let sequential = script(1);
        assert_eq!(
            sequential.len(),
            2 * 15 - 1,
            "ao 4 ends instead of beating twice"
        );
        for sweep in sequential.chunks(15) {
            assert!(sweep.windows(2).all(|w| w[0].from <= w[1].from));
        }
        assert_eq!(script(4), sequential);
    }

    /// A kernel that was not driven for several periods (a paused host)
    /// fires one tick per endpoint and restarts the cadence from `now`.
    #[test]
    fn a_paused_kernel_ticks_once_not_in_a_burst() {
        let mut k = NodeKernel::new(1);
        for i in 0..3 {
            k.spawn(ao(i), Time::ZERO, cfg(), None);
            k.add_ref(Time::ZERO, ao(i), AoId::new(1, 0));
        }
        let resumed = Time::ZERO + TTB.saturating_mul(5) + Dur::from_millis(40);
        assert_eq!(heartbeats_to(&tick(&mut k, resumed), 1), 3);
        assert!(tick(&mut k, resumed).is_empty(), "no catch-up ticks");
        assert_eq!(k.next_tick(), Some(resumed + TTB));
    }

    #[test]
    fn a_new_edge_makes_its_referencer_due_now() {
        let mut k = NodeKernel::new(1);
        k.spawn(ao(0), Time::ZERO, cfg(), None);
        let now = Time::ZERO + Dur::from_millis(30);
        k.add_ref(now, ao(0), AoId::new(1, 0));
        assert_eq!(k.next_tick(), Some(now));
        assert_eq!(heartbeats_to(&tick(&mut k, now), 1), 1);
        // Then the TTB cadence, counted from the early beat.
        assert_eq!(k.next_tick(), Some(now + TTB));
    }

    #[test]
    fn a_thousand_new_edges_in_one_turn_give_one_tick() {
        let mut k = NodeKernel::new(1);
        k.spawn(ao(0), Time::ZERO, cfg(), None);
        let now = Time::ZERO + Dur::from_millis(30);
        for i in 0..1_000 {
            k.add_ref(now, ao(0), AoId::new(1, i));
        }
        assert_eq!(k.timers.len(), 1, "one index entry per endpoint");
        // One beat to each target: a second tick would double it.
        assert_eq!(heartbeats_to(&tick(&mut k, now), 1), 1_000);
        assert!(tick(&mut k, now).is_empty());
        assert_eq!(k.next_tick(), Some(now + TTB));
    }

    #[test]
    fn re_deserializing_an_edge_does_not_move_its_timer() {
        let mut k = NodeKernel::new(1);
        k.spawn(ao(0), Time::ZERO, cfg(), None);
        let edge_at = Time::ZERO + Dur::from_millis(30);
        k.add_ref(edge_at, ao(0), AoId::new(1, 0));
        // Still owed its first message: not new.
        k.add_ref(edge_at + Dur::from_millis(5), ao(0), AoId::new(1, 0));
        assert_eq!(k.next_tick(), Some(edge_at));
        tick(&mut k, edge_at + Dur::from_millis(5));
        // Held and beaten: not new either.
        k.add_ref(edge_at + Dur::from_millis(50), ao(0), AoId::new(1, 0));
        assert_eq!(k.next_tick(), Some(edge_at + TTB));
    }

    /// Delivers `units` inside the kernel at `now`, with everything the
    /// deliveries emit in turn, until nothing is in flight.
    fn deliver(k: &mut NodeKernel, now: Time, units: Vec<SweepUnit>) {
        let mut in_flight: std::collections::VecDeque<SweepUnit> = units.into();
        while let Some(SweepUnit { from, action }) = in_flight.pop_front() {
            match action {
                Action::SendMessage { to, message } => match k.on_message(now, to, &message) {
                    Some(mut out) => {
                        in_flight.extend(out.drain_units());
                        k.recycle(out);
                    }
                    None => k.on_send_failure(from, to),
                },
                Action::SendResponse { to, response } => {
                    for action in k.on_response(now, from, to, &response) {
                        in_flight.push_back(SweepUnit { from: to, action });
                    }
                }
                Action::Terminate { .. } => {}
            }
        }
    }

    #[test]
    fn add_ref_on_an_absent_or_inactive_endpoint_changes_nothing() {
        let mut k = NodeKernel::new(1);
        let (a, b) = (ao(0), ao(1));
        for id in [a, b] {
            k.spawn(id, Time::ZERO, cfg(), None);
            k.set_idle(Time::ZERO, id, true);
        }
        k.add_ref(Time::ZERO, a, b);
        k.add_ref(Time::ZERO, b, a);
        let is_dying = |k: &mut NodeKernel, id| {
            matches!(
                k.table.get_mut(id).map(|ep| ep.state.phase()),
                Some(crate::protocol::Phase::Dying { .. })
            )
        };
        let mut now = Time::ZERO;
        while !is_dying(&mut k, a) && !is_dying(&mut k, b) {
            now = k.next_tick().expect("the 2-cycle is still hosted");
            assert!(
                now < Time::from_secs(10),
                "the idle 2-cycle reaches consensus"
            );
            let units = tick(&mut k, now);
            deliver(&mut k, now, units);
        }
        let dying = if is_dying(&mut k, a) { a } else { b };
        let before = (k.timers.clone(), k.hosted());
        k.add_ref(now, dying, AoId::new(1, 0));
        k.add_ref(now, ao(7), a);
        assert_eq!((k.timers.clone(), k.hosted()), before);
        let referenced = k.table.get_mut(dying).map(|ep| ep.state.referenced_count());
        assert_eq!(referenced, Some(1), "no edge was added");
    }

    /// §4.3 with the wait counted from the response: a member that learns
    /// the consensus from a response between ticks is due exactly TTA
    /// later — its one index entry moves there — and terminates on that
    /// tick, not on the first cadence tick after it.
    #[test]
    fn a_propagated_dying_endpoint_terminates_at_its_deadline() {
        let tta = cfg().tta;
        let mut k = NodeKernel::new(1);
        let (a, b) = (ao(0), ao(1));
        for id in [a, b] {
            k.spawn(id, Time::ZERO, cfg(), None);
            k.set_idle(Time::ZERO, id, true);
        }
        k.add_ref(Time::ZERO, a, b);
        k.add_ref(Time::ZERO, b, a);
        let propagated_since =
            |k: &mut NodeKernel, id| match k.table.get_mut(id).map(|ep| ep.state.phase()) {
                Some(crate::protocol::Phase::Dying {
                    since,
                    reason: TerminateReason::CyclicPropagated,
                }) => Some(since),
                _ => None,
            };
        let (member, since) = loop {
            if let Some(found) = [a, b]
                .into_iter()
                .find_map(|id| propagated_since(&mut k, id).map(|since| (id, since)))
            {
                break found;
            }
            let due = k.next_tick().expect("the 2-cycle is still hosted");
            assert!(
                due < Time::from_secs(10),
                "the idle 2-cycle reaches consensus"
            );
            let units = tick(&mut k, due);
            // The responses arrive 2 ms after the sweep, as over a link.
            deliver(&mut k, due + Dur::from_millis(2), units);
        };
        let deadline = since + tta;
        let entries: Vec<Time> = k
            .timers
            .iter()
            .filter(|&&(_, id)| id == member)
            .map(|&(at, _)| at)
            .collect();
        assert_eq!(entries, vec![deadline], "one index entry, at the deadline");
        // Whatever else is due first, the member is not ticked before.
        while let Some(due) = k.next_tick().filter(|&at| at < deadline) {
            let units = tick(&mut k, due);
            assert!(units.iter().all(|u| u.from != member), "{units:?}");
        }
        assert!(k.hosts(member));
        let units = tick(&mut k, deadline);
        assert!(units.iter().any(|u| u.from == member
            && matches!(
                u.action,
                Action::Terminate {
                    reason: TerminateReason::CyclicPropagated
                }
            )));
        assert!(!k.hosts(member));
    }

    #[test]
    fn spawning_an_id_twice_leaves_one_index_entry() {
        let mut k = NodeKernel::new(1);
        k.spawn(ao(0), Time::ZERO, cfg(), None);
        k.spawn(ao(0), Time::ZERO, cfg(), None);
        assert_eq!((k.timers.len(), k.hosted()), (1, 1));
        let later = Time::ZERO + Dur::from_millis(50);
        k.spawn(ao(0), later, cfg(), None);
        assert_eq!((k.timers.len(), k.hosted()), (1, 1));
        assert_eq!(k.next_tick(), Some(later + TTB));
    }

    /// §7.1 adaptive timing with a busy referencer that gains a new edge
    /// on each of several consecutive turns: every early beat is one more
    /// adaptation step (busy backs off by a quarter), yet every gap
    /// between beats stays within the TTB the previous beat announced,
    /// and the TTB never passes `max_ttb`.
    #[test]
    fn early_beats_keep_adaptive_gaps_within_the_announced_ttb() {
        let max_ttb = Dur::from_millis(200);
        let config = DgcConfig::builder()
            .ttb(TTB)
            .tta(Dur::from_millis(500))
            .max_comm(Dur::from_millis(20))
            .timing(crate::config::TimingMode::Adaptive {
                min_ttb: Dur::from_millis(20),
                max_ttb,
            })
            .build();
        config.validate().expect("safe");
        let mut k = NodeKernel::new(1);
        k.spawn(ao(0), Time::ZERO, config, None);
        let turn = Dur::from_millis(30);
        let mut beats: Vec<(Time, Dur)> = Vec::new();
        let mut record = |now: Time, units: Vec<SweepUnit>| {
            let announced = units.iter().find_map(|u| match u.action {
                Action::SendMessage { message, .. } => Some(message.sender_ttb),
                _ => None,
            });
            if let Some(ttb) = announced {
                beats.push((now, ttb));
            }
        };
        for i in 0..8u32 {
            let now = Time::ZERO + TTB + turn.saturating_mul(i as u64);
            while let Some(due) = k.next_tick().filter(|&t| t < now) {
                record(due, tick(&mut k, due));
            }
            k.add_ref(now, ao(0), AoId::new(1, i));
            record(now, tick(&mut k, now));
        }
        for _ in 0..10 {
            let due = k.next_tick().expect("a busy activity is hosted");
            record(due, tick(&mut k, due));
        }
        assert!(beats.len() >= 18, "{beats:?}");
        let mut expected = TTB;
        for (i, &(_, ttb)) in beats.iter().enumerate() {
            // One step per tick, early or scheduled.
            expected = max_ttb.min(expected.saturating_add(expected.div(4)));
            assert_eq!(ttb, expected, "beat {i}");
            assert!(ttb <= max_ttb);
        }
        for pair in beats.windows(2) {
            let ((prev, announced), (next, _)) = (pair[0], pair[1]);
            assert!(next.since(prev) <= announced, "{pair:?}");
        }
    }

    /// The old linear-scan kernel, kept as the index's reference model:
    /// every tick filters all endpoints and the next tick is a `min`.
    #[derive(Default)]
    struct ScanModel {
        endpoints: BTreeMap<AoId, Endpoint>,
        scratch: crate::sweep::SweepScratch,
    }

    impl ScanModel {
        fn spawn(&mut self, id: AoId, now: Time, config: DgcConfig) {
            let ep = Endpoint {
                state: DgcState::new(id, now, config),
                idle: false,
                next_tick: now + config.ttb,
            };
            self.endpoints.insert(id, ep);
        }

        fn add_ref(&mut self, now: Time, from: AoId, to: AoId) {
            if let Some(ep) = self.endpoints.get_mut(&from) {
                if ep.state.on_stub_deserialized(to) {
                    ep.next_tick = ep.next_tick.min(now);
                }
            }
        }

        fn drop_ref(&mut self, from: AoId, to: AoId) {
            if let Some(ep) = self.endpoints.get_mut(&from) {
                ep.state.on_stubs_collected(to);
            }
        }

        fn set_idle(&mut self, now: Time, id: AoId, idle: bool) {
            if let Some(ep) = self.endpoints.get_mut(&id) {
                if idle && !ep.idle {
                    ep.state.on_became_idle(now);
                }
                ep.idle = idle;
            }
        }

        fn tick_due(&mut self, now: Time) -> Vec<SweepUnit> {
            let mut units = Vec::new();
            for ep in self.endpoints.values_mut() {
                if ep.next_tick <= now {
                    ep.state
                        .on_tick_into(now, ep.idle, &mut self.scratch, &mut units);
                    ep.next_tick = match ep.state.dying_deadline() {
                        Some(deadline) => deadline,
                        None => rearm(ep.next_tick, now, ep.state.current_ttb()),
                    };
                }
            }
            self.endpoints.retain(|_, ep| !ep.state.is_dead());
            units
        }

        /// [`deliver`] over the model: a dying endpoint's next tick is
        /// its deadline from the moment a response makes it dying.
        fn deliver(&mut self, now: Time, units: Vec<SweepUnit>) {
            let mut in_flight: std::collections::VecDeque<SweepUnit> = units.into();
            while let Some(SweepUnit { from, action }) = in_flight.pop_front() {
                match action {
                    Action::SendMessage { to, message } => match self.endpoints.get_mut(&to) {
                        Some(ep) => {
                            let from = ep.state.id();
                            for action in ep.state.on_message(now, &message) {
                                in_flight.push_back(SweepUnit { from, action });
                            }
                        }
                        None => {
                            if let Some(ep) = self.endpoints.get_mut(&from) {
                                ep.state.on_send_failure(to);
                            }
                        }
                    },
                    Action::SendResponse { to, response } => {
                        if let Some(ep) = self.endpoints.get_mut(&to) {
                            for action in ep.state.on_response(now, from, &response, ep.idle) {
                                in_flight.push_back(SweepUnit { from: to, action });
                            }
                            if let Some(deadline) = ep.state.dying_deadline() {
                                ep.next_tick = deadline;
                            }
                        }
                    }
                    Action::Terminate { .. } => {}
                }
            }
        }

        fn next_tick(&self) -> Option<Time> {
            self.endpoints.values().map(|ep| ep.next_tick).min()
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;
        use proptest::test_runner::TestCaseError;

        /// One scripted step: `(op, activity, other, advance ms)`.
        type Step = (u8, u32, u32, u64);

        /// Runs `script` on a kernel with `shards` and on the model,
        /// comparing everything observable after every step.
        fn replay(script: &[Step], shards: usize) -> Result<(), TestCaseError> {
            let mut k = NodeKernel::new(shards);
            let mut model = ScanModel::default();
            let mut now = Time::ZERO;
            for (i, &(op, a, b, advance)) in script.iter().enumerate() {
                // Ids 0..6 live here; 6.. name activities on node 1.
                let target = if b < 6 { ao(b) } else { AoId::new(1, b) };
                match op {
                    0 => {
                        k.spawn(ao(a), now, cfg(), None);
                        model.spawn(ao(a), now, cfg());
                    }
                    1 | 2 => {
                        k.add_ref(now, ao(a), target);
                        model.add_ref(now, ao(a), target);
                    }
                    3 => {
                        k.drop_ref(ao(a), target);
                        model.drop_ref(ao(a), target);
                    }
                    4 => {
                        k.set_idle(now, ao(a), b % 2 == 0);
                        model.set_idle(now, ao(a), b % 2 == 0);
                    }
                    _ => {
                        // 5..8 advance by the step's amount; 8.. wake
                        // exactly when the next endpoint is due, as a
                        // host does.
                        now = match k.next_tick() {
                            Some(due) if op >= 8 => due.max(now),
                            _ => now + Dur::from_millis(advance),
                        };
                        let units = tick(&mut k, now);
                        prop_assert_eq!(&units, &model.tick_due(now), "step {}", i);
                        if op != 5 {
                            // Delivered a moment after the sweep, as
                            // over a link.
                            now = now + Dur::from_millis(2);
                            deliver(&mut k, now, units.clone());
                            model.deliver(now, units);
                        }
                    }
                }
                prop_assert_eq!(k.next_tick(), model.next_tick(), "step {}", i);
                prop_assert_eq!(k.hosted(), model.endpoints.len(), "step {}", i);
                prop_assert_eq!(k.timers.len(), k.hosted(), "step {}: one entry each", i);
                for ep in &k.table.slots {
                    let id = ep.state.id();
                    prop_assert!(k.timers.contains(&(ep.next_tick, id)), "step {}", i);
                    if let Some(deadline) = ep.state.dying_deadline() {
                        prop_assert_eq!(ep.next_tick, deadline, "step {}: {:?} dying", i, id);
                    }
                }
            }
            Ok(())
        }

        proptest! {
            /// Each script starts from an idle local ring of `ring`
            /// members (none below two) and `settle` host wake-ups, so
            /// consensus, propagation and the TTA wait happen among the
            /// random steps that follow.
            #[test]
            fn the_index_matches_a_linear_scan(
                ring in 0u32..6,
                settle in 0usize..12,
                script in proptest::collection::vec((0u8..11, 0u32..6, 0u32..9, 0u64..300), 1..80),
            ) {
                let members = if ring < 2 { 0 } else { ring };
                let wire = (0..members).flat_map(|m| {
                    [(0, m, 0, 0), (1, m, (m + 1) % members, 0), (4, m, 0, 0)]
                });
                let wake = std::iter::repeat_n((8, 0, 0, 0), settle);
                let script: Vec<Step> = wire.chain(wake).chain(script).collect();
                replay(&script, 1)?;
                replay(&script, 4)?;
            }
        }
    }
}
