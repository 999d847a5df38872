//! The node kernel: one hosted-activity table, one set of TTB timers
//! and one DGC dispatch path for every host.
//!
//! A *host* — the socket runtime's event loop, the thread runtime's
//! node thread, the in-memory [`Harness`](crate::harness::Harness), the
//! simulator `Grid` (one kernel per simulated process) — owns a
//! transport and a clock; what it hosts lives here. [`NodeKernel`] is
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
//! it *dying*, and its wait ends on a later tick), so `tick_due` is
//! where endpoints leave the table: by the time the host sees an
//! [`Action::Terminate`] the endpoint and its timer are gone, and a
//! later message to it is "no such target". The one other way out is
//! [`NodeKernel::remove`], for an activity the environment killed.
//! Either way the endpoint's counters stay in [`NodeKernel::stats`].
//!
//! The timers are one due-time index of `(due, id)`, one entry per
//! hosted endpoint: [`NodeKernel::next_tick`] reads its first entry and
//! [`NodeKernel::tick_due`] pops only the due ones, so a loop turn with
//! nothing due touches no endpoint. An activity's **cadence** starts at
//! its first beat and steps one TTB at a time. On every host — the
//! socket and thread runtimes, the harness and the simulator — every
//! activity of node `n` beats on the node's **beat grid**, the instants
//! `offset(n) + k·TTB` with `offset(n) = frac(n·φ⁻¹)·TTB`: a node's
//! activities share one sweep (one frame per destination) and
//! neighbouring nodes, spread by the golden ratio, beat out of phase — a
//! message reaches its receiver part of a TTB before the receiver's
//! beat, not just after it, and a consensus crosses a ring in fractions
//! of a TTB per hop.
//!
//! **A new reference edge beats now, to that edge only, and keeps the
//! cadence.** [`NodeKernel::add_ref`] moves the referencer's index entry
//! to `now` and leaves its cadence alone; when `tick_due` pops that
//! entry before the cadence instant it sends one message to each edge
//! owed its first one ([`DgcState::on_owed_into`]) and re-indexes
//! the endpoint at its cadence. An endpoint whose cadence is due in the
//! same call gets its full beat instead, which covers the owed edges.
//! Sending the first message early is safe: the §4.2 bound is over gaps
//! between messages, and an early one only shortens a gap.
//!
//! **A dying endpoint's timer is its deadline, and telling its last
//! referencer moves it.** It sends nothing while it waits, so instead of
//! ticking every TTB its one index entry sits at
//! [`DgcState::dying_deadline`]: TTA after the consensus at the latest,
//! and the instant its last referencer still owed an answer is answered
//! if that comes first (the owner of the consensus clock is never owed
//! one, so a member whose only referencer is the owner is due at once).
//! The entry moves on the tick that detects the consensus, in
//! [`NodeKernel::on_response`] when a propagated consensus arrives
//! between ticks, and in [`NodeKernel::on_message`] when the answer to
//! a message tells the last referencer. A tick still does the
//! terminating, so the last response leaves before the endpoint does.
//! Every host re-reads [`NodeKernel::next_tick`] after each delivery:
//! rt-net's and rt-thread's loops and the harness on every turn, the
//! simulator `Grid` by re-arming its process wake after each DGC message,
//! response and farewell.
//!
//! **A referencer that lets go says farewell, and the farewell ends the
//! acyclic wait.** An endpoint that terminates on the acyclic path sends
//! one farewell to every target it still references, in the sweep that
//! terminates it (a cyclic one only to the edges it had dropped);
//! an edge lost to stub collection ([`NodeKernel::drop_ref`]) makes its
//! endpoint due now, and that pop sends the one farewell — the same
//! one-target path as a new edge's first message, so farewells leave
//! only through `tick_due`. Each carries the age of the sender's last
//! [`NodeKernel::passed_on`] of that reference. The target forgets the
//! sender at `receipt + max(0, 2·MaxComm + TTB − age)` rather than TTA
//! after its last message ([`DgcState::on_farewell`]); a farewell that
//! leaves an idle target listing only referencers that said farewell
//! moves its index entry to the instant its acyclic wait ends
//! ([`DgcState::acyclic_deadline`]) — now, when the table is empty and
//! its creation guard has passed — and that pop collects it. So each
//! later hop of a garbage chain costs one message, not a TTA. A
//! farewell from a referencer a dying endpoint still waits on tells it,
//! as a message would. A farewell to an absent target is dropped: it
//! owes the sender nothing, not even a send failure.
//!
//! **An idle endpoint that only farewells and time hold is indexed at
//! its acyclic deadline.** Its entry sits at `min(cadence,
//! acyclic_deadline)` after every pop, when it goes idle
//! ([`NodeKernel::set_idle`]) and when a hold is released
//! ([`NodeKernel::set_held`]); so a fresh, unreferenced idle activity —
//! the head of a garbage chain — goes when its creation guard ends, not
//! on its next grid beat. A pop before the cadence goes through
//! [`DgcState::on_owed_into`], as a farewell's does, and keeps the
//! cadence.

use std::collections::{BTreeMap, BTreeSet};

use crate::config::DgcConfig;
use crate::id::AoId;
use crate::message::{Action, DgcFarewell, DgcMessage, DgcResponse, TerminateReason};
use crate::protocol::DgcState;
use crate::stats::DgcStats;
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
    /// The activity's own idleness, as the host declares it.
    idle: bool,
    /// Held by a non-active referencer ([`NodeKernel::set_held`]).
    held: bool,
    /// The next full beat (or, while dying, the dying deadline).
    cadence: Time,
    /// The endpoint's one index entry: `cadence`, or earlier while a
    /// new edge is owed its first message.
    due: Time,
}

impl Endpoint {
    /// The idleness the protocol sees: a held activity counts as busy.
    fn collectable(&self) -> bool {
        self.idle && !self.held
    }
}

/// 2⁶⁴/φ: the golden-ratio step that spreads node offsets (Weyl
/// sequence), so any few consecutive nodes sit far apart in the period.
const GOLDEN_STEP: u64 = 0x9E37_79B9_7F4A_7C15;

/// The first instant of the lattice `anchor + k·ttb` (any integer `k`)
/// after `now`: always in `(now, now + ttb]`.
fn next_on_lattice(anchor: Time, now: Time, ttb: Dur) -> Time {
    let period = ttb.as_nanos().max(1);
    let behind = (now.as_nanos() % period + period - anchor.as_nanos() % period) % period;
    now + Dur::from_nanos(period - behind)
}

/// The first instant of node `node`'s beat grid after `now`: the grid is
/// `offset(node) + k·ttb` with `offset(node) = frac(node·φ⁻¹)·ttb`
/// (nodes 0, 1, 2, 3 at 0, .618, .236, .854 of a period).
fn grid_beat(node: u32, now: Time, ttb: Dur) -> Time {
    let frac = u64::from(node).wrapping_mul(GOLDEN_STEP);
    let offset = (u128::from(frac) * u128::from(ttb.as_nanos())) >> 64;
    next_on_lattice(Time::from_nanos(offset as u64), now, ttb)
}

/// When a TTB tick that was scheduled for `scheduled` and ran at `now`
/// fires next: the first instant of the lattice `scheduled + k·ttb`
/// after `now`. Re-arming from the *scheduled* instant keeps the period
/// exact — re-arming from `now` would add every wake-up's lateness to
/// it, forever, and the §4.2 bound is stated over a heartbeat that
/// leaves every TTB. A host that is a whole period or more behind (a
/// pause, a stall) ticks once, never in a burst to catch up, and the
/// endpoint stays on its node's beat grid.
fn rearm(scheduled: Time, now: Time, ttb: Dur) -> Time {
    next_on_lattice(scheduled, now, ttb)
}

/// When an endpoint that has just been ticked at `now` beats next: its
/// dying deadline while dying, the TTB cadence ([`rearm`]) otherwise.
fn next_cadence(ep: &Endpoint, now: Time) -> Time {
    ep.state
        .dying_deadline()
        .unwrap_or_else(|| rearm(ep.cadence, now, ep.state.current_ttb()))
}

/// Moves `id`'s one index entry from `ep.due` to `at`.
fn reschedule(timers: &mut BTreeSet<(Time, AoId)>, id: AoId, ep: &mut Endpoint, at: Time) {
    timers.remove(&(ep.due, id));
    ep.due = at;
    timers.insert((at, id));
}

/// The instant an idle active endpoint's acyclic wait ends — `now` if
/// it has — when only farewells and time hold it; `None` otherwise.
fn acyclic_due(ep: &Endpoint, now: Time) -> Option<Time> {
    let end = ep.state.acyclic_deadline().filter(|_| ep.collectable())?;
    Some(end.max(now))
}

/// Moves an endpoint's index entry to its [`acyclic_due`] instant when
/// that is before its next pop; the cadence stays.
fn follow_acyclic(timers: &mut BTreeSet<(Time, AoId)>, now: Time, id: AoId, ep: &mut Endpoint) {
    if let Some(end) = acyclic_due(ep, now).filter(|&end| end < ep.due) {
        reschedule(timers, id, ep, end);
    }
}

/// Keeps a dying endpoint's cadence and index entry at its deadline,
/// which a delivery can set (a response that propagates a consensus) or
/// move earlier (a message whose answer tells the last referencer).
fn follow_deadline(timers: &mut BTreeSet<(Time, AoId)>, id: AoId, ep: &mut Endpoint) {
    if let Some(deadline) = ep.state.dying_deadline() {
        ep.cadence = deadline;
        if ep.due != deadline {
            reschedule(timers, id, ep, deadline);
        }
    }
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

    fn remove(&mut self, id: AoId) -> Option<Endpoint> {
        let slot = self.slot_of.remove(&id)?;
        if slot >= self.slots.len() {
            return None;
        }
        let ep = self.slots.swap_remove(slot);
        if let Some(moved) = self.slots.get(slot) {
            self.slot_of.insert(moved.state.id(), slot);
        }
        Some(ep)
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
    /// The due-time index: exactly one `(due, id)` per hosted endpoint,
    /// so the earliest beat is the first entry.
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
    /// The counters of every endpoint that left the table.
    retired: DgcStats,
}

impl NodeKernel {
    /// An empty kernel whose TTB sweeps fan out over `shards` workers
    /// (`1`: inline, no thread), and whose activities beat on their
    /// node's beat grid.
    pub fn new(shards: usize) -> Self {
        NodeKernel {
            table: Table::default(),
            timers: BTreeSet::new(),
            shards,
            pools: SweepPools::new(),
            due: Vec::new(),
            dead: Vec::new(),
            retired: DgcStats::default(),
        }
    }

    /// Hosts a new activity, initially busy. Its cadence starts at its
    /// node's first grid instant after `now` — so a node's activities
    /// beat together — and then steps one TTB at a time; a new reference
    /// edge sends its first message sooner without moving it
    /// ([`add_ref`](Self::add_ref)). `obs` attaches the hosting node's
    /// telemetry handles. Spawning a hosted id replaces its endpoint and
    /// its timer.
    pub fn spawn(&mut self, id: AoId, now: Time, config: DgcConfig, obs: Option<DgcObs>) {
        let mut state = DgcState::new(id, now, config);
        if let Some(obs) = obs {
            state.set_obs(obs);
        }
        let first_beat = grid_beat(id.node, now, config.ttb);
        let ep = Endpoint {
            state,
            idle: false,
            held: false,
            cadence: first_beat,
            due: first_beat,
        };
        if let Some(old) = self.table.insert(id, ep) {
            self.timers.remove(&(old.due, id));
            self.retired.merge(old.state.stats());
        }
        self.timers.insert((first_beat, id));
    }

    /// Stops hosting `id` without a verdict — the environment killed it
    /// (an explicit kill, a crash, a departure). Its endpoint and timer
    /// go, its counters stay in [`stats`](Self::stats), and a later
    /// message to it is "no such target".
    pub fn remove(&mut self, id: AoId) {
        if let Some(ep) = self.table.remove(id) {
            self.timers.remove(&(ep.due, id));
            self.retired.merge(ep.state.stats());
        }
    }

    /// The protocol counters of every endpoint this kernel has hosted:
    /// the live ones plus those terminated or removed.
    pub fn stats(&self) -> DgcStats {
        let mut total = self.retired;
        for ep in &self.table.slots {
            total.merge(ep.state.stats());
        }
        total
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
    /// activity clock exactly as the middleware would. An endpoint left
    /// idle and held only by farewells and time becomes due when its
    /// acyclic wait ends, if that is before its cadence.
    pub fn set_idle(&mut self, now: Time, id: AoId, idle: bool) {
        if let Some(ep) = self.table.get_mut(id) {
            if idle && !ep.idle {
                ep.state.on_became_idle(now);
            }
            ep.idle = idle;
            follow_acyclic(&mut self.timers, now, id, ep);
        }
    }

    /// Declares whether `id` is held by a non-active referencer — §4.1's
    /// dummy referencer, such as a pending application timer that will
    /// call it. A held activity counts as busy for collection: it is
    /// never collected and blocks every consensus through it. Its own
    /// busy→idle transitions still bump its clock, and so does a release
    /// that leaves it idle; such a release indexes it as
    /// [`set_idle`](Self::set_idle) does.
    pub fn set_held(&mut self, now: Time, id: AoId, held: bool) {
        if let Some(ep) = self.table.get_mut(id) {
            if ep.held && !held && ep.idle {
                ep.state.on_became_idle(now);
            }
            ep.held = held;
            follow_acyclic(&mut self.timers, now, id, ep);
        }
    }

    /// Creates the reference edge `from → to` (stub deserialization).
    /// A new edge beats now, to that edge only: `from`'s index entry
    /// moves to `now`, so the next [`tick_due`](Self::tick_due) sends
    /// the edge its first message — one message, not a broadcast — and
    /// `from`'s cadence stays where it was. Re-deserializing an edge
    /// `from` already has leaves its timer alone.
    pub fn add_ref(&mut self, now: Time, from: AoId, to: AoId) {
        let Some(ep) = self.table.get_mut(from) else {
            return;
        };
        if ep.state.on_stub_deserialized(to) && ep.due > now {
            reschedule(&mut self.timers, from, ep, now);
        }
    }

    /// Removes the reference edge `from → to` (all stubs collected).
    /// `to` is owed a farewell, so `from` is due now and the next
    /// [`tick_due`](Self::tick_due) sends it — after the edge's first
    /// message, if that is still owed — and `from`'s cadence stays.
    pub fn drop_ref(&mut self, now: Time, from: AoId, to: AoId) {
        let Some(ep) = self.table.get_mut(from) else {
            return;
        };
        if ep.state.on_stubs_collected(to) && ep.due > now {
            reschedule(&mut self.timers, from, ep, now);
        }
    }

    /// `from` passed its reference to `to` on to another activity at
    /// `now`, inside a request or reply it sent: its farewell to `to`
    /// will carry the age of this instant. A host calls this for every
    /// reference an activity dispatches.
    pub fn passed_on(&mut self, now: Time, from: AoId, to: AoId) {
        if let Some(ep) = self.table.get_mut(from) {
            ep.state.on_passed_on(now, to);
        }
    }

    /// Delivers a DGC message to `to`. `None` means no such target —
    /// never hosted here, or already terminated — and the host owes the
    /// sender a send failure; otherwise the response is in the returned
    /// pools (drain, then [`recycle`](Self::recycle)). A dying `to`
    /// whose answer tells its last referencer becomes due now.
    pub fn on_message(&mut self, now: Time, to: AoId, message: &DgcMessage) -> Option<SweepPools> {
        let ep = self.table.get_mut(to)?;
        let mut out = std::mem::take(&mut self.pools);
        ep.state.on_message_into(now, message, out.unit_buf());
        follow_deadline(&mut self.timers, to, ep);
        Some(out)
    }

    /// Delivers a farewell to `to`. `false` means no such target; the
    /// host drops the farewell and owes the sender nothing. A farewell
    /// that tells a dying `to`'s last referencer makes it due now, and
    /// one that leaves an idle `to` held only by farewells and time moves
    /// its index entry to the end of its acyclic wait.
    pub fn on_farewell(&mut self, now: Time, to: AoId, farewell: &DgcFarewell) -> bool {
        let Some(ep) = self.table.get_mut(to) else {
            return false;
        };
        ep.state.on_farewell(now, farewell);
        follow_deadline(&mut self.timers, to, ep);
        follow_acyclic(&mut self.timers, now, to, ep);
        true
    }

    /// Delivers the DGC response `from` sent to `to`; returns what `to`
    /// wants done (nothing if it is not hosted). A response that
    /// propagates a consensus makes `to` dying, and its timer moves to
    /// its dying deadline.
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
        let actions = ep.state.on_response(now, from, response, ep.collectable());
        follow_deadline(&mut self.timers, to, ep);
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

    /// Runs every endpoint due at `now`, as **one batched sweep**: the
    /// due entries leave the index and their endpoints run in place in
    /// ascending activity-id order (across the configured shards). One
    /// whose cadence is due ticks through `on_tick_into` and re-arms —
    /// on its TTB lattice, or at its dying deadline if it is dying; one
    /// that is due early — for a new edge, a lost edge's farewell, or the
    /// end of an acyclic wait a farewell shortened — sends what it owes
    /// or terminates ([`DgcState::on_owed_into`]) and keeps its cadence.
    /// Each survivor is re-indexed at its cadence, or at the end of its
    /// acyclic wait if that comes first and only farewells and time hold
    /// it; the terminated ones are removed. The returned pools hold every
    /// emitted unit in exactly the order a sequential sweep would have
    /// produced — all of a sweep's units reach the host before it routes
    /// any, which is what lets its egress coalesce a whole sweep into one
    /// frame. Drain them, then [`recycle`](Self::recycle).
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
            if ep.cadence <= now {
                let idle = ep.collectable();
                ep.state.on_tick_into(now, idle, scratch, units);
                ep.cadence = next_cadence(ep, now);
            } else {
                let idle = ep.collectable();
                ep.state.on_owed_into(now, idle, scratch, units);
            }
            ep.due = acyclic_due(ep, now).map_or(ep.cadence, |end| end.min(ep.cadence));
        });
        for ep in due {
            let id = ep.state.id();
            if ep.state.is_dead() {
                self.dead.push(id);
            } else {
                self.timers.insert((ep.due, id));
            }
        }
        for id in self.dead.drain(..) {
            if let Some(ep) = self.table.remove(id) {
                self.retired.merge(ep.state.stats());
            }
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
        // A whole period or more behind: the first instant of the same
        // lattice after now — one tick, no burst, still on the grid.
        let stalled = scheduled + TTB;
        assert_eq!(rearm(scheduled, stalled, TTB), stalled + TTB);
        let paused = scheduled + Dur::from_millis(750);
        assert_eq!(
            rearm(scheduled, paused, TTB),
            scheduled + TTB.saturating_mul(8)
        );
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

    /// A farewell to a target that was never hosted here, or has gone,
    /// changes nothing and gets no reply of any kind — not even a send
    /// failure: the host just drops it.
    #[test]
    fn a_farewell_to_an_absent_target_gets_no_reply() {
        let mut k = NodeKernel::new(1);
        k.spawn(ao(0), Time::ZERO, cfg(), None);
        k.set_idle(Time::ZERO, ao(0), true);
        let gone = tick(&mut k, Time::from_secs(1));
        assert!(!k.hosts(ao(0)), "{gone:?}");
        k.spawn(ao(1), Time::ZERO, cfg(), None);
        let before = (k.next_tick(), k.stats());
        let farewell = DgcFarewell {
            sender: AoId::new(1, 0),
            age: None,
        };
        for absent in [ao(0), ao(7), AoId::new(3, 1)] {
            assert!(!k.on_farewell(Time::from_secs(1), absent, &farewell));
        }
        assert_eq!((k.next_tick(), k.stats()), before);
        assert!(tick(&mut k, Time::from_secs(1)).is_empty());
    }

    /// A dropped edge's farewell leaves on the next pop, now, alone, and
    /// carries the age of the edge's last pass-on; the cadence holds.
    #[test]
    fn a_dropped_edge_says_farewell_now_with_its_pass_on_age() {
        let mut k = NodeKernel::new(1);
        k.spawn(ao(0), Time::ZERO, cfg(), None);
        let target = AoId::new(1, 0);
        k.add_ref(Time::ZERO, ao(0), target);
        assert_eq!(messages(&tick(&mut k, Time::ZERO)).len(), 1);
        k.passed_on(Time::ZERO + Dur::from_millis(30), ao(0), target);
        let now = Time::ZERO + Dur::from_millis(50);
        k.drop_ref(now, ao(0), target);
        assert_eq!(k.next_tick(), Some(now));
        let said = tick(&mut k, now);
        assert_eq!(
            said,
            vec![SweepUnit {
                from: ao(0),
                action: Action::SendFarewell {
                    to: target,
                    farewell: DgcFarewell {
                        sender: ao(0),
                        age: Some(Dur::from_millis(20)),
                    },
                },
            }]
        );
        assert_eq!(k.next_tick(), Some(Time::ZERO + TTB), "the cadence holds");
        assert!(tick(&mut k, Time::ZERO + TTB).is_empty(), "said once");
    }

    /// A farewell that empties an idle target's referencer table, past
    /// its creation guard, makes it due at that instant, and the pop
    /// there collects it — not its next beat.
    #[test]
    fn a_farewell_that_empties_an_idle_table_collects_at_once() {
        let mut k = NodeKernel::new(1);
        let (holder, target) = (ao(0), ao(1));
        for id in [holder, target] {
            k.spawn(id, Time::ZERO, cfg(), None);
        }
        k.set_idle(Time::ZERO, target, true);
        k.add_ref(Time::ZERO, holder, target);
        let mut now = Time::ZERO;
        while now < Time::from_secs(1) {
            now = k.next_tick().expect("both hosted");
            let units = tick(&mut k, now);
            deliver(&mut k, now, units);
        }
        assert!(k.hosts(target), "held by its busy referencer");
        let dropped = now + Dur::from_millis(10);
        k.drop_ref(dropped, holder, target);
        let units = tick(&mut k, dropped);
        let received = dropped + Dur::from_millis(2);
        deliver(&mut k, received, units);
        assert_eq!(k.next_tick(), Some(received));
        let units = tick(&mut k, received);
        assert!(units.iter().any(|u| u.from == target
            && matches!(
                u.action,
                Action::Terminate {
                    reason: TerminateReason::Acyclic
                }
            )));
        assert!(!k.hosts(target));
    }

    /// A fresh, idle, unreferenced endpoint is indexed at the end of its
    /// creation guard, `2·MaxComm + TTB` after it was spawned, whenever
    /// that comes before its cadence — and the pop there, between two
    /// grid beats, collects it.
    #[test]
    fn a_fresh_idle_endpoint_pops_at_its_deadline_not_its_cadence() {
        let mut k = NodeKernel::new(1);
        let spawned = Time::ZERO + Dur::from_millis(50);
        k.spawn(ao(0), spawned, cfg(), None);
        k.set_idle(spawned, ao(0), true);
        let window = cfg().max_comm.saturating_mul(2).saturating_add(TTB);
        let deadline = spawned + window + Dur::from_nanos(1);
        // The first grid beat (100 ms) comes first and finds it alive.
        assert_eq!(k.next_tick(), Some(Time::ZERO + TTB));
        assert!(tick(&mut k, Time::ZERO + TTB).is_empty());
        // Next: the deadline (190 ms + 1 ns), not the 200 ms beat.
        assert_eq!(k.next_tick(), Some(deadline));
        assert!(tick(&mut k, Time::from_nanos(deadline.as_nanos() - 1)).is_empty());
        let units = tick(&mut k, deadline);
        assert_eq!(
            units,
            vec![SweepUnit {
                from: ao(0),
                action: Action::Terminate {
                    reason: TerminateReason::Acyclic
                },
            }]
        );
        assert_eq!((k.hosted(), k.next_tick()), (0, None));
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
        let before = k.stats();
        assert_eq!(before.messages_sent, 1);
        // Nobody references ao 1: silent for more than TTA, it goes.
        let units = tick(&mut k, Time::from_secs(1));
        assert_eq!(k.stats(), before, "a terminated endpoint's counts stay");
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

    /// An environment kill: the endpoint and its timer go, its counts
    /// stay, and the survivor's first beat stays on the grid.
    #[test]
    fn remove_keeps_the_counts_and_frees_the_timer() {
        let mut k = NodeKernel::new(1);
        k.spawn(ao(0), Time::ZERO, cfg(), None);
        k.spawn(ao(1), Time::ZERO, cfg(), None);
        k.add_ref(Time::ZERO, ao(1), ao(0));
        let beat = tick(&mut k, Time::ZERO);
        let Some(&Action::SendMessage { message, .. }) = beat.first().map(|u| &u.action) else {
            panic!("ao 1 beats toward ao 0: {beat:?}");
        };
        deliver(&mut k, Time::ZERO, beat);
        let before = k.stats();
        assert_eq!((before.messages_sent, before.responses_sent), (1, 1));
        k.remove(ao(1));
        k.remove(ao(1));
        assert_eq!(k.stats(), before);
        assert_eq!((k.hosts(ao(1)), k.hosted(), k.timers.len()), (false, 1, 1));
        assert_eq!(k.next_tick(), Some(Time::ZERO + TTB), "ao 0's");
        assert!(k.on_message(Time::ZERO, ao(1), &message).is_none());
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
            [TTB, Dur::from_secs(1)].map(|at| tick(&mut k, Time::ZERO + at))
        };
        let sequential = script(1);
        // ao 4 ends instead of beating twice, with a farewell to each.
        let sizes = sequential.each_ref().map(Vec::len);
        assert_eq!(sizes, [15, 15 - 2 + 2 + 1]);
        for sweep in &sequential {
            assert!(sweep.windows(2).all(|w| w[0].from <= w[1].from));
        }
        assert_eq!(script(4), sequential);
    }

    /// A kernel that was not driven for several periods (a paused host)
    /// fires one tick per endpoint and resumes the cadence at the next
    /// instant of its lattice, not one TTB after the late tick.
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
        assert_eq!(k.next_tick(), Some(Time::ZERO + TTB.saturating_mul(6)));
    }

    /// The messages in `units`, as `(target, message)`.
    fn messages(units: &[SweepUnit]) -> Vec<(AoId, DgcMessage)> {
        units
            .iter()
            .filter_map(|u| match u.action {
                Action::SendMessage { to, message } => Some((to, message)),
                _ => None,
            })
            .collect()
    }

    /// A new edge mid-period: its referencer is due now, for exactly one
    /// message, to that target; the next full beat stays at the instant
    /// the cadence already had.
    #[test]
    fn a_new_edge_makes_its_referencer_due_now() {
        let mut k = NodeKernel::new(1);
        k.spawn(ao(0), Time::ZERO, cfg(), None);
        let (held, new) = (AoId::new(1, 0), AoId::new(1, 1));
        k.add_ref(Time::ZERO, ao(0), held);
        assert_eq!(messages(&tick(&mut k, Time::ZERO)).len(), 1);
        let now = Time::ZERO + Dur::from_millis(30);
        k.add_ref(now, ao(0), new);
        assert_eq!(k.next_tick(), Some(now));
        let early = messages(&tick(&mut k, now));
        assert_eq!(early.iter().map(|m| m.0).collect::<Vec<_>>(), vec![new]);
        // The full beat stays where the cadence had it, and covers both.
        assert_eq!(k.next_tick(), Some(Time::ZERO + TTB));
        assert!(tick(&mut k, Time::ZERO + Dur::from_millis(99)).is_empty());
        let full = messages(&tick(&mut k, Time::ZERO + TTB));
        assert_eq!(
            full.iter().map(|m| m.0).collect::<Vec<_>>(),
            vec![held, new]
        );
        assert_eq!(k.next_tick(), Some(Time::ZERO + TTB.saturating_mul(2)));
    }

    /// The one-target beat keeps §3.1's promise once: a stub collected
    /// after it loses the edge at once, and the next beat skips it.
    #[test]
    fn an_owed_beat_clears_the_promise() {
        let mut k = NodeKernel::new(1);
        k.spawn(ao(0), Time::ZERO, cfg(), None);
        let target = AoId::new(1, 0);
        let now = Time::ZERO + Dur::from_millis(30);
        k.add_ref(now, ao(0), target);
        assert_eq!(messages(&tick(&mut k, now)).len(), 1);
        k.drop_ref(now, ao(0), target);
        let referenced = k.table.get_mut(ao(0)).map(|ep| ep.state.referenced_count());
        assert_eq!(referenced, Some(0), "no promise holds the edge");
        assert!(messages(&tick(&mut k, Time::ZERO + TTB)).is_empty());
        assert_eq!(k.stats().messages_sent, 1);
    }

    /// An owed edge whose stub was collected before the beat still gets
    /// its one message, then drops; the drop bumps the clock before the
    /// message is built, so the message carries the bumped clock.
    #[test]
    fn an_unreachable_owed_edge_drops_and_bumps_before_its_message() {
        let mut k = NodeKernel::new(1);
        k.spawn(ao(0), Time::ZERO, cfg(), None);
        let target = AoId::new(1, 0);
        let now = Time::ZERO + Dur::from_millis(30);
        k.add_ref(now, ao(0), target);
        k.drop_ref(now, ao(0), target);
        let before = k.table.get_mut(ao(0)).map(|ep| ep.state.clock());
        let sent = messages(&tick(&mut k, now));
        let after = k
            .table
            .get_mut(ao(0))
            .map(|ep| (ep.state.clock(), ep.state.referenced_count()));
        let Some((clock, referenced)) = after else {
            panic!("ao 0 is hosted");
        };
        assert_ne!(Some(clock), before, "the drop bumped the clock");
        assert_eq!(referenced, 0, "the edge is gone");
        assert_eq!(sent.len(), 1);
        assert_eq!((sent[0].0, sent[0].1.clock), (target, clock));
        assert_eq!(k.stats().bumps_lost_referenced, 1);
        assert_eq!(k.next_tick(), Some(Time::ZERO + TTB), "the cadence holds");
    }

    #[test]
    fn a_new_edge_at_the_cadence_instant_gets_one_message() {
        let mut k = NodeKernel::new(1);
        k.spawn(ao(0), Time::ZERO, cfg(), None);
        let at = Time::ZERO + TTB;
        k.add_ref(at, ao(0), AoId::new(1, 0));
        assert_eq!(messages(&tick(&mut k, at)).len(), 1);
        assert!(tick(&mut k, at).is_empty());
        assert_eq!(k.next_tick(), Some(at + TTB));
    }

    /// Activities spawned at different instants of a period beat
    /// together from their first beat on: one sweep, not two.
    #[test]
    fn endpoints_spawned_mid_period_share_every_beat() {
        let mut k = NodeKernel::new(1);
        let spawned = [Dur::from_millis(10), Dur::from_millis(70)];
        for (i, at) in (0..).zip(spawned) {
            let now = Time::ZERO + at;
            k.spawn(ao(i), now, cfg(), None);
            k.add_ref(now, ao(i), AoId::new(1, i));
            assert_eq!(messages(&tick(&mut k, now)).len(), 1, "the new edge's beat");
        }
        for round in 1..=5 {
            let due = k.next_tick();
            assert_eq!(due, Some(Time::ZERO + TTB.saturating_mul(round)));
            let units = tick(&mut k, due.unwrap_or(Time::ZERO));
            let from: Vec<AoId> = units.iter().map(|u| u.from).collect();
            assert_eq!(from, vec![ao(0), ao(1)], "round {round}");
        }
    }

    #[test]
    fn grid_beats_land_within_one_period_on_the_node_offset() {
        let offset = |node| grid_beat(node, Time::ZERO, TTB).as_nanos() % TTB.as_nanos();
        // frac(n·φ⁻¹) of 100 ms: 0, .618, .236, .854.
        let spread: Vec<u64> = (0..4).map(|n| offset(n) / 1_000_000).collect();
        assert_eq!(spread, vec![0, 61, 23, 85]);
        for node in [0, 1, 2, 3, 17, u32::MAX] {
            let lattice = offset(node);
            for now_ns in [
                0,
                1,
                lattice,
                lattice + 1,
                99_999_999,
                100_000_000,
                12_345_678_901,
            ] {
                let now = Time::from_nanos(now_ns);
                let beat = grid_beat(node, now, TTB);
                assert!(
                    beat > now && beat <= now + TTB,
                    "node {node} at {now}: {beat}"
                );
                assert_eq!(beat.as_nanos() % TTB.as_nanos(), lattice, "node {node}");
            }
        }
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
        // One message to each target: a second pass would double it.
        assert_eq!(heartbeats_to(&tick(&mut k, now), 1), 1_000);
        assert!(tick(&mut k, now).is_empty());
        assert_eq!(k.next_tick(), Some(Time::ZERO + TTB));
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
        assert_eq!(k.next_tick(), Some(Time::ZERO + TTB));
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
                Action::SendFarewell { to, farewell } => {
                    k.on_farewell(now, to, &farewell);
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
    /// the consensus from a response between ticks, and whose only
    /// referencer owns the consensus clock, is owed to no one, so it is
    /// due at that instant — its one index entry moves there — and
    /// terminates on that tick, neither TTA later nor on its next
    /// cadence tick.
    #[test]
    fn a_propagated_dying_endpoint_terminates_at_its_deadline() {
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
                    ..
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
        let deadline = since;
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

    /// The owner that detects a 2-cycle's consensus waits on its one
    /// referencer, at most TTA. The message whose answer tells it moves
    /// its index entry to that instant, and the tick there terminates it
    /// — after the answer was drained. The answer in turn makes the
    /// other member dying and due at once: its only referencer is the
    /// owner.
    #[test]
    fn telling_the_last_referencer_moves_the_deadline_to_now() {
        let tta = cfg().tta;
        let mut k = NodeKernel::new(1);
        let (a, b) = (ao(0), ao(1));
        for id in [a, b] {
            k.spawn(id, Time::ZERO, cfg(), None);
            k.set_idle(Time::ZERO, id, true);
        }
        k.add_ref(Time::ZERO, a, b);
        k.add_ref(Time::ZERO, b, a);
        let phase = |k: &mut NodeKernel, id| k.table.get_mut(id).map(|ep| ep.state.phase());
        let detected = |k: &mut NodeKernel| {
            [a, b].into_iter().find_map(|id| match phase(k, id) {
                Some(crate::protocol::Phase::Dying {
                    since,
                    reason: TerminateReason::CyclicDetected,
                    ..
                }) => Some((id, since)),
                _ => None,
            })
        };
        let (owner, since, units) = loop {
            let due = k.next_tick().expect("the 2-cycle is still hosted");
            assert!(
                due < Time::from_secs(10),
                "the idle 2-cycle reaches consensus"
            );
            let units = tick(&mut k, due);
            if let Some((owner, since)) = detected(&mut k) {
                break (owner, since, units);
            }
            deliver(&mut k, due + Dur::from_millis(2), units);
        };
        let other = if owner == a { b } else { a };
        let entries = |k: &NodeKernel, of| {
            k.timers
                .iter()
                .filter(|&&(_, id)| id == of)
                .map(|&(at, _)| at)
                .collect::<Vec<Time>>()
        };
        assert_eq!(entries(&k, owner), vec![since + tta], "owed to {other:?}");
        // Both members beat on node 0's grid, so the sweep that found
        // the consensus also carries the other member's beat.
        let beat = messages(&units)
            .into_iter()
            .find_map(|(to, message)| (to == owner).then_some(message))
            .expect("the other member beats the owner");
        let at = since + Dur::from_millis(2);
        let mut out = k.on_message(at, owner, &beat).expect("the owner is hosted");
        let answer: Vec<SweepUnit> = out.drain_units().collect();
        k.recycle(out);
        assert!(
            matches!(
                answer.as_slice(),
                [SweepUnit {
                    action: Action::SendResponse { to, response },
                    ..
                }] if *to == other && response.consensus_reached
            ),
            "{answer:?}"
        );
        assert_eq!(entries(&k, owner), vec![at]);
        assert_eq!(k.next_tick(), Some(at));
        let units = tick(&mut k, at);
        assert!(units.iter().any(|u| u.from == owner
            && matches!(
                u.action,
                Action::Terminate {
                    reason: TerminateReason::CyclicDetected
                }
            )));
        assert!(!k.hosts(owner));
        // The answer, delivered after the owner left, still propagates.
        let learned = at + Dur::from_millis(2);
        deliver(&mut k, learned, answer);
        assert_eq!(k.next_tick(), Some(learned));
        let units = tick(&mut k, learned);
        assert!(units.iter().any(|u| u.from == other
            && matches!(
                u.action,
                Action::Terminate {
                    reason: TerminateReason::CyclicPropagated
                }
            )));
        assert_eq!(k.hosted(), 0);
    }

    #[test]
    fn spawning_an_id_twice_leaves_one_index_entry() {
        let mut k = NodeKernel::new(1);
        k.spawn(ao(0), Time::ZERO, cfg(), None);
        k.spawn(ao(0), Time::ZERO, cfg(), None);
        assert_eq!((k.timers.len(), k.hosted()), (1, 1));
        // Respawned mid-way through its second period: the old entry at
        // the first grid instant goes, the new one is at the next.
        let later = Time::ZERO + Dur::from_millis(150);
        k.spawn(ao(0), later, cfg(), None);
        assert_eq!((k.timers.len(), k.hosted()), (1, 1));
        assert_eq!(k.next_tick(), Some(Time::ZERO + TTB.saturating_mul(2)));
    }

    /// A held activity counts as busy for collection: idle and
    /// unreferenced it outlives TTA many times over, yet going idle
    /// still bumps its clock. Released while idle, long past its
    /// creation guard, it bumps once more, is due at once and takes the
    /// acyclic path on that pop.
    #[test]
    fn a_held_activity_is_collected_only_once_released() {
        let mut k = NodeKernel::new(1);
        k.spawn(ao(0), Time::ZERO, cfg(), None);
        k.set_held(Time::ZERO, ao(0), true);
        k.set_idle(Time::ZERO, ao(0), true);
        assert_eq!(k.stats().bumps_became_idle, 1);
        let mut now = Time::ZERO;
        while now < Time::from_secs(2) {
            now = k.next_tick().expect("a held activity stays hosted");
            assert!(tick(&mut k, now).is_empty(), "at {now}");
        }
        k.set_held(now, ao(0), false);
        assert_eq!(k.stats().bumps_became_idle, 2);
        let due = k.next_tick().expect("hosted until its next pop");
        assert_eq!(due, now, "due at the release, not its next beat");
        assert!(tick(&mut k, due).iter().any(|u| matches!(
            u.action,
            Action::Terminate {
                reason: TerminateReason::Acyclic
            }
        )));
        assert!(!k.hosts(ao(0)));
    }

    /// An idle 2-cycle with one held member reaches no consensus; once
    /// the member is released the cycle is collected.
    #[test]
    fn a_held_member_blocks_its_cycle_until_released() {
        let mut k = NodeKernel::new(1);
        let (a, b) = (ao(0), ao(1));
        for id in [a, b] {
            k.spawn(id, Time::ZERO, cfg(), None);
            k.set_idle(Time::ZERO, id, true);
        }
        k.set_held(Time::ZERO, a, true);
        k.add_ref(Time::ZERO, a, b);
        k.add_ref(Time::ZERO, b, a);
        let run_until = |k: &mut NodeKernel, end: Time| {
            while let Some(due) = k.next_tick().filter(|&at| at <= end) {
                let units = tick(k, due);
                deliver(k, due + Dur::from_millis(2), units);
            }
        };
        let released = Time::from_secs(5);
        run_until(&mut k, released);
        assert!(k.hosts(a) && k.hosts(b), "held: nothing collected");
        k.set_held(released, a, false);
        run_until(&mut k, Time::from_secs(10));
        assert!(!k.hosts(a) && !k.hosts(b), "released: the cycle goes");
    }

    /// §7.1 adaptive timing with a busy referencer that gains a new edge
    /// on each of several consecutive turns: every full beat is one
    /// adaptation step (busy backs off by a quarter), a new edge's
    /// one-target beat is none, every gap between messages stays within
    /// the TTB the previous one announced, and the TTB never passes
    /// `max_ttb`.
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
        let first_edge = AoId::new(1, 0);
        let turn = Dur::from_millis(30);
        // (when, announced TTB, a full beat: it reaches the first edge)
        let mut beats: Vec<(Time, Dur, bool)> = Vec::new();
        let mut record = |now: Time, units: Vec<SweepUnit>| {
            let sent = messages(&units);
            if let Some((_, message)) = sent.first() {
                let full = sent.iter().any(|&(to, _)| to == first_edge);
                beats.push((now, message.sender_ttb, full));
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
        let owed = beats.iter().filter(|b| !b.2).count();
        assert_eq!(owed, 7, "one owed beat per edge after the first: {beats:?}");
        assert!(beats.len() >= 18, "{beats:?}");
        let mut expected = TTB;
        for (i, &(_, ttb, full)) in beats.iter().enumerate() {
            if full {
                expected = max_ttb.min(expected.saturating_add(expected.div(4)));
            }
            assert_eq!(ttb, expected, "beat {i}");
            assert!(ttb <= max_ttb);
        }
        for pair in beats.windows(2) {
            let ((prev, announced, _), (next, _, _)) = (pair[0], pair[1]);
            assert!(next.since(prev) <= announced, "{pair:?}");
        }
    }

    /// The old linear-scan kernel, kept as the index's reference model:
    /// every tick filters all endpoints and the next tick is a `min`. It
    /// keeps its own §4.3 books rather than asking `dying_deadline`, and
    /// holds an idle endpoint's next pop at `min(cadence,
    /// acyclic_deadline)`.
    #[derive(Default)]
    struct ScanModel {
        endpoints: BTreeMap<AoId, Endpoint>,
        waits: BTreeMap<AoId, Wait>,
        scratch: crate::sweep::SweepScratch,
    }

    /// A dying endpoint as the model sees it: when it began dying, the
    /// referencers it still owes an answer (all but the clock owner),
    /// and when the last of them was answered.
    struct Wait {
        since: Time,
        untold: BTreeSet<AoId>,
        told_at: Option<Time>,
    }

    impl Wait {
        /// The wait `state` began at `now`, if this input made it dying.
        fn began(was_active: bool, state: &DgcState, now: Time) -> Option<Wait> {
            if !was_active || !matches!(state.phase(), crate::protocol::Phase::Dying { .. }) {
                return None;
            }
            let owner = state.clock().owner;
            let untold: BTreeSet<AoId> = state
                .referencer_ids()
                .into_iter()
                .filter(|&r| r != owner)
                .collect();
            let told_at = untold.is_empty().then_some(now);
            Some(Wait {
                since: now,
                untold,
                told_at,
            })
        }

        /// Books the wait `id`'s last input began, if any, and keeps a
        /// dying endpoint's cadence and due at the model's deadline.
        fn follow(
            waits: &mut BTreeMap<AoId, Wait>,
            id: AoId,
            ep: &mut Endpoint,
            was_active: bool,
            now: Time,
        ) {
            if let Some(wait) = Wait::began(was_active, &ep.state, now) {
                waits.insert(id, wait);
            }
            if let Some(wait) = waits.get(&id) {
                ep.cadence = wait.deadline(ep.state.config().tta);
                ep.due = ep.cadence;
            }
        }

        fn answered(&mut self, sender: AoId, now: Time) {
            if self.untold.remove(&sender) && self.untold.is_empty() {
                self.told_at = Some(now);
            }
        }

        fn deadline(&self, tta: Dur) -> Time {
            let cap = self.since + tta;
            self.told_at.map_or(cap, |told| told.min(cap))
        }
    }

    impl ScanModel {
        fn spawn(&mut self, id: AoId, now: Time, first_beat: Time, config: DgcConfig) {
            let ep = Endpoint {
                state: DgcState::new(id, now, config),
                idle: false,
                held: false,
                cadence: first_beat,
                due: first_beat,
            };
            self.endpoints.insert(id, ep);
            self.waits.remove(&id);
        }

        fn add_ref(&mut self, now: Time, from: AoId, to: AoId) {
            if let Some(ep) = self.endpoints.get_mut(&from) {
                if ep.state.on_stub_deserialized(to) {
                    ep.due = ep.due.min(now);
                }
            }
        }

        fn drop_ref(&mut self, now: Time, from: AoId, to: AoId) {
            if let Some(ep) = self.endpoints.get_mut(&from) {
                if ep.state.on_stubs_collected(to) {
                    ep.due = ep.due.min(now);
                }
            }
        }

        fn passed_on(&mut self, now: Time, from: AoId, to: AoId) {
            if let Some(ep) = self.endpoints.get_mut(&from) {
                ep.state.on_passed_on(now, to);
            }
        }

        fn set_idle(&mut self, now: Time, id: AoId, idle: bool) {
            if let Some(ep) = self.endpoints.get_mut(&id) {
                if idle && !ep.idle {
                    ep.state.on_became_idle(now);
                }
                ep.idle = idle;
                if let Some(end) = ep.state.acyclic_deadline().filter(|_| ep.idle) {
                    ep.due = ep.due.min(end.max(now));
                }
            }
        }

        fn tick_due(&mut self, now: Time) -> Vec<SweepUnit> {
            let mut units = Vec::new();
            for (&id, ep) in self.endpoints.iter_mut() {
                if ep.due > now {
                    continue;
                }
                if ep.cadence <= now {
                    let was_active = ep.state.phase() == crate::protocol::Phase::Active;
                    ep.state
                        .on_tick_into(now, ep.idle, &mut self.scratch, &mut units);
                    if let Some(wait) = Wait::began(was_active, &ep.state, now) {
                        self.waits.insert(id, wait);
                    }
                    ep.cadence = match self.waits.get(&id) {
                        Some(wait) => wait.deadline(ep.state.config().tta),
                        None => rearm(ep.cadence, now, ep.state.current_ttb()),
                    };
                } else {
                    ep.state
                        .on_owed_into(now, ep.idle, &mut self.scratch, &mut units);
                }
                ep.due = ep.cadence;
                if let Some(end) = ep.state.acyclic_deadline().filter(|_| ep.idle) {
                    ep.due = ep.due.min(end.max(now));
                }
            }
            self.endpoints.retain(|_, ep| !ep.state.is_dead());
            let endpoints = &self.endpoints;
            self.waits.retain(|id, _| endpoints.contains_key(id));
            units
        }

        /// [`deliver`] over the model: a dying endpoint's next tick is
        /// its deadline from the moment a response makes it dying, and
        /// moves to `now` when a message's answer or a farewell tells its
        /// last referencer; an idle endpoint a farewell leaves held by
        /// farewells and time only is next due when its acyclic wait
        /// ends, if that is sooner.
        fn deliver(&mut self, now: Time, units: Vec<SweepUnit>) {
            let mut in_flight: std::collections::VecDeque<SweepUnit> = units.into();
            while let Some(SweepUnit { from, action }) = in_flight.pop_front() {
                match action {
                    Action::SendMessage { to, message } => match self.endpoints.get_mut(&to) {
                        Some(ep) => {
                            for action in ep.state.on_message(now, &message) {
                                in_flight.push_back(SweepUnit { from: to, action });
                            }
                            if let Some(wait) = self.waits.get_mut(&to) {
                                wait.answered(message.sender, now);
                            }
                            Wait::follow(&mut self.waits, to, ep, false, now);
                        }
                        None => {
                            if let Some(ep) = self.endpoints.get_mut(&from) {
                                ep.state.on_send_failure(to);
                            }
                        }
                    },
                    Action::SendResponse { to, response } => {
                        if let Some(ep) = self.endpoints.get_mut(&to) {
                            let was_active = ep.state.phase() == crate::protocol::Phase::Active;
                            for action in ep.state.on_response(now, from, &response, ep.idle) {
                                in_flight.push_back(SweepUnit { from: to, action });
                            }
                            Wait::follow(&mut self.waits, to, ep, was_active, now);
                        }
                    }
                    Action::SendFarewell { to, farewell } => {
                        if let Some(ep) = self.endpoints.get_mut(&to) {
                            ep.state.on_farewell(now, &farewell);
                            if let Some(wait) = self.waits.get_mut(&to) {
                                wait.answered(farewell.sender, now);
                            }
                            Wait::follow(&mut self.waits, to, ep, false, now);
                            if let Some(end) = ep.state.acyclic_deadline().filter(|_| ep.idle) {
                                ep.due = ep.due.min(end.max(now));
                            }
                        }
                    }
                    Action::Terminate { .. } => {}
                }
            }
        }

        fn next_tick(&self) -> Option<Time> {
            self.endpoints.values().map(|ep| ep.due).min()
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;
        use proptest::test_runner::TestCaseError;

        /// One scripted step: `(op, activity, other, advance ms)`.
        /// Ops: 0 spawn, 1 add a reference, 2 pass one on, 3 drop one,
        /// 4 set idle or busy, 5..8 advance and tick, 8..11 wake when due,
        /// 11 spawn a fresh, idle, unreferenced endpoint.
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
                        model.spawn(ao(a), now, grid_beat(0, now, TTB), cfg());
                    }
                    1 => {
                        k.add_ref(now, ao(a), target);
                        model.add_ref(now, ao(a), target);
                    }
                    2 => {
                        k.passed_on(now, ao(a), target);
                        model.passed_on(now, ao(a), target);
                    }
                    3 => {
                        k.drop_ref(now, ao(a), target);
                        model.drop_ref(now, ao(a), target);
                    }
                    4 => {
                        k.set_idle(now, ao(a), b % 2 == 0);
                        model.set_idle(now, ao(a), b % 2 == 0);
                    }
                    11 => {
                        k.spawn(ao(a), now, cfg(), None);
                        k.set_idle(now, ao(a), true);
                        model.spawn(ao(a), now, grid_beat(0, now, TTB), cfg());
                        model.set_idle(now, ao(a), true);
                    }
                    _ => {
                        // 5..8 advance by the step's amount; 8..11 wake
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
                    prop_assert!(k.timers.contains(&(ep.due, id)), "step {}", i);
                    prop_assert!(ep.due <= ep.cadence, "step {}: {:?}", i, id);
                    if let Some(deadline) = ep.state.dying_deadline() {
                        prop_assert_eq!(ep.due, deadline, "step {}: {:?} dying", i, id);
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
                script in proptest::collection::vec((0u8..12, 0u32..6, 0u32..9, 0u64..300), 1..80),
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
