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
//! Only a tick terminates an activity (Algorithm 2 — a propagated
//! consensus makes it *dying*, and the TTA wait ends on a later tick),
//! so `tick_due` is where endpoints leave the table: by the time the
//! host sees an [`Action::Terminate`] the endpoint and its timer are
//! gone, and a later message to it is "no such target".

use std::collections::BTreeMap;

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

/// Everything one node hosts, and when each of them beats next.
pub struct NodeKernel {
    endpoints: BTreeMap<AoId, Endpoint>,
    /// TTB sweep fan-out (`DGC_SWEEP_SHARDS` / `NetConfig::sweep_shards`).
    shards: usize,
    /// Per-shard scratch and unit buffers, reused sweep after sweep and
    /// message after message.
    pools: SweepPools,
}

impl NodeKernel {
    /// An empty kernel whose TTB sweeps fan out over `shards` workers
    /// (`1`: inline, no thread).
    pub fn new(shards: usize) -> Self {
        NodeKernel {
            endpoints: BTreeMap::new(),
            shards,
            pools: SweepPools::new(),
        }
    }

    /// Hosts a new activity, initially busy; its first beat is one TTB
    /// from `now`. `obs` attaches the hosting node's telemetry handles.
    pub fn spawn(&mut self, id: AoId, now: Time, config: DgcConfig, obs: Option<DgcObs>) {
        let mut state = DgcState::new(id, now, config);
        if let Some(obs) = obs {
            state.set_obs(obs);
        }
        self.endpoints.insert(
            id,
            Endpoint {
                state,
                idle: false,
                next_tick: now + config.ttb,
            },
        );
    }

    /// True while `id` is hosted here (spawned and not yet terminated).
    pub fn hosts(&self, id: AoId) -> bool {
        self.endpoints.contains_key(&id)
    }

    /// How many activities are hosted.
    pub fn hosted(&self) -> usize {
        self.endpoints.len()
    }

    /// Declares `id` idle or busy; a busy→idle transition bumps the
    /// activity clock exactly as the middleware would.
    pub fn set_idle(&mut self, now: Time, id: AoId, idle: bool) {
        if let Some(ep) = self.endpoints.get_mut(&id) {
            if idle && !ep.idle {
                ep.state.on_became_idle(now);
            }
            ep.idle = idle;
        }
    }

    /// Creates the reference edge `from → to` (stub deserialization).
    pub fn add_ref(&mut self, from: AoId, to: AoId) {
        if let Some(ep) = self.endpoints.get_mut(&from) {
            ep.state.on_stub_deserialized(to);
        }
    }

    /// Removes the reference edge `from → to` (all stubs collected).
    pub fn drop_ref(&mut self, from: AoId, to: AoId) {
        if let Some(ep) = self.endpoints.get_mut(&from) {
            ep.state.on_stubs_collected(to);
        }
    }

    /// Delivers a DGC message to `to`. `None` means no such target —
    /// never hosted here, or already terminated — and the host owes the
    /// sender a send failure; otherwise the response is in the returned
    /// pools (drain, then [`recycle`](Self::recycle)).
    pub fn on_message(&mut self, now: Time, to: AoId, message: &DgcMessage) -> Option<SweepPools> {
        let ep = self.endpoints.get_mut(&to)?;
        let mut out = std::mem::take(&mut self.pools);
        ep.state.on_message_into(now, message, out.unit_buf());
        Some(out)
    }

    /// Delivers the DGC response `from` sent to `to`; returns what `to`
    /// wants done (nothing if it is not hosted).
    pub fn on_response(
        &mut self,
        now: Time,
        from: AoId,
        to: AoId,
        response: &DgcResponse,
    ) -> Vec<Action> {
        match self.endpoints.get_mut(&to) {
            Some(ep) => ep.state.on_response(now, from, response, ep.idle),
            None => Vec::new(),
        }
    }

    /// A message from `holder` to `target` could not be delivered:
    /// `holder` drops the edge.
    pub fn on_send_failure(&mut self, holder: AoId, target: AoId) {
        if let Some(ep) = self.endpoints.get_mut(&holder) {
            ep.state.on_send_failure(target);
        }
    }

    /// The whole node `node` departed: every hosted activity forgets
    /// the referencers and referenced activities it had there.
    pub fn on_node_dead(&mut self, node: u32) {
        for ep in self.endpoints.values_mut() {
            ep.state.on_node_dead(node);
        }
    }

    /// Runs every endpoint whose TTB tick is due at `now`, as **one
    /// batched sweep**: due endpoints in ascending activity-id order,
    /// ticked through `on_tick_into` (across the configured shards),
    /// each re-armed by [`rearm`], the terminated ones removed. The
    /// returned pools hold every emitted unit in exactly the order a
    /// sequential sweep would have produced — all of a sweep's units
    /// reach the host before it routes any, which is what lets its
    /// egress coalesce a whole sweep into one frame. Drain them, then
    /// [`recycle`](Self::recycle).
    pub fn tick_due(&mut self, now: Time) -> SweepPools {
        let mut out = std::mem::take(&mut self.pools);
        let mut due: Vec<&mut Endpoint> = self
            .endpoints
            .values_mut()
            .filter(|ep| ep.next_tick <= now)
            .collect();
        if due.is_empty() {
            return out;
        }
        sweep_sharded(&mut due, self.shards, &mut out, |ep, scratch, units| {
            ep.state.on_tick_into(now, ep.idle, scratch, units);
            ep.next_tick = rearm(ep.next_tick, now, ep.state.current_ttb());
        });
        let dead: Vec<AoId> = due
            .iter()
            .filter(|ep| ep.state.is_dead())
            .map(|ep| ep.state.id())
            .collect();
        for id in dead {
            self.endpoints.remove(&id);
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
        self.endpoints.values().map(|ep| ep.next_tick).min()
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
        k.add_ref(ao(0), AoId::new(1, 0));
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
        k.add_ref(ao(1), ao(0));
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
            k.add_ref(ao(i), AoId::new(9, i));
            k.add_ref(ao(i), AoId::new(2, i));
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
                    k.add_ref(ao(i), AoId::new(1, t));
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
            k.add_ref(ao(i), AoId::new(1, 0));
        }
        let resumed = Time::ZERO + TTB.saturating_mul(5) + Dur::from_millis(40);
        assert_eq!(heartbeats_to(&tick(&mut k, resumed), 1), 3);
        assert!(tick(&mut k, resumed).is_empty(), "no catch-up ticks");
        assert_eq!(k.next_tick(), Some(resumed + TTB));
    }
}
