//! The DGC protocol state machine (§3 of the paper).
//!
//! One [`DgcState`] lives next to every active object. It is **sans-io**:
//! handlers mutate local state and return [`Action`]s; a runtime performs
//! the sends, reports deliveries, and destroys the object when told to.
//! The same state machine is driven by the deterministic simulator
//! (`dgc-activeobj`) and by the real-thread runtime (`dgc-rt-thread`).
//!
//! The four algorithms of §3.3 map to:
//!
//! * Algorithm 1 (recursive agreement) — [`ReferencerTable::agree`],
//! * Algorithm 2 (every TTB)           — [`DgcState::on_tick`],
//! * Algorithm 3 (message reception)   — [`DgcState::on_message`],
//! * Algorithm 4 (response reception)  — [`DgcState::on_response`].
//!
//! The PDF text of the paper lost the `≠` glyphs in the pseudo-code; the
//! conditions below follow the reconstruction documented in DESIGN.md
//! (they match the prose of §3.2).

use crate::clock::NamedClock;
use crate::config::{DgcConfig, ParentPolicy, TimingMode};
use crate::id::AoId;
use crate::message::{Action, DgcMessage, DgcResponse, TerminateReason};
use crate::referenced::ReferencedTable;
use crate::referencers::ReferencerTable;
use crate::stats::{ClockBumpReason, DgcStats};
use crate::sweep::{ActionSink, SweepScratch};
use crate::telemetry::DgcObs;
use crate::units::{Dur, Time};

/// Life-cycle phase of a DGC endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Normal operation.
    Active,
    /// Consensus reached (§4.3 optimization): heartbeats stopped,
    /// responses advertise `consensus_reached`, termination after TTA.
    Dying {
        /// When the phase was entered.
        since: Time,
        /// The reason that will be reported at termination.
        reason: TerminateReason,
    },
    /// Terminated; all inputs are ignored.
    Dead,
}

/// The per-active-object DGC endpoint.
#[derive(Debug, Clone)]
pub struct DgcState {
    id: AoId,
    config: DgcConfig,
    clock: NamedClock,
    parent: Option<AoId>,
    /// Depth in the reverse spanning tree (0 = originator), tracked only
    /// under [`ParentPolicy::MinDepth`].
    tree_depth: Option<u32>,
    referencers: ReferencerTable,
    referenced: ReferencedTable,
    /// Arrival time of the last DGC message from anyone; initialised to
    /// the creation time so a never-referenced object still waits TTA.
    last_message_timestamp: Time,
    phase: Phase,
    current_ttb: Dur,
    stats: DgcStats,
    // Telemetry: creation/idle/beat timestamps feeding the collection
    // latency histograms when a registry is attached via `set_obs`.
    created_at: Time,
    last_idle_at: Option<Time>,
    last_tick_at: Option<Time>,
    obs: Option<DgcObs>,
}

impl DgcState {
    /// Creates the endpoint for active object `id` at time `now`.
    pub fn new(id: AoId, now: Time, config: DgcConfig) -> Self {
        let current_ttb = match config.timing {
            TimingMode::Static => config.ttb,
            TimingMode::Adaptive { min_ttb, max_ttb } => config.ttb.clamp(min_ttb, max_ttb),
        };
        DgcState {
            id,
            config,
            clock: NamedClock::initial(id),
            parent: None,
            tree_depth: None,
            referencers: ReferencerTable::new(),
            referenced: ReferencedTable::new(),
            last_message_timestamp: now,
            phase: Phase::Active,
            current_ttb,
            stats: DgcStats::default(),
            created_at: now,
            last_idle_at: None,
            last_tick_at: None,
            obs: None,
        }
    }

    /// Attaches cached telemetry handles (usually
    /// [`DgcObs::new`] against the hosting node's registry): node-wide,
    /// fleet-mergeable counters and latency histograms beside this
    /// endpoint's own [`DgcStats`].
    pub fn set_obs(&mut self, obs: DgcObs) {
        self.obs = Some(obs);
    }

    // ------------------------------------------------------------------
    // Inputs from the middleware (reference-graph construction, §2.2)
    // ------------------------------------------------------------------

    /// A stub for `target` was deserialized by this activity: add the
    /// edge and guarantee one DGC message at the next broadcast (§3.1).
    /// Returns `true` when the edge is new — one this activity did not
    /// already hold or still owe a message — and `false` otherwise,
    /// including when the endpoint is no longer active.
    pub fn on_stub_deserialized(&mut self, target: AoId) -> bool {
        if self.phase != Phase::Active {
            return false;
        }
        self.referenced.on_stub_deserialized(target)
    }

    /// The local collector reports that all stubs for `target` (the
    /// shared tag) died. If the edge disappears, this is a "loss of a
    /// referenced" and bumps the activity clock (§3.2, Fig. 6).
    pub fn on_stubs_collected(&mut self, target: AoId) {
        if self.phase != Phase::Active {
            return;
        }
        if self.referenced.on_stubs_collected(target) {
            self.lose_referenced_edge(target);
        }
    }

    /// Sending to `target` failed (it terminated): drop the edge.
    pub fn on_send_failure(&mut self, target: AoId) {
        if self.phase != Phase::Active {
            return;
        }
        if self.referenced.remove(target) {
            self.lose_referenced_edge(target);
        }
    }

    /// The runtime learned — from the transport's *terminal* send
    /// failure or from a membership layer's "dead" verdict — that the
    /// whole node `node` departed. Every referenced edge toward it is
    /// dropped as if each individual send had failed, and every
    /// referencer hosted there is treated as departed immediately (the
    /// "loss of a referencer" of §3.2, Fig. 5) instead of waiting out
    /// its TTA expiry. A node that later *rejoins* does so under a new
    /// incarnation with fresh activities, so forgetting the old ids here
    /// is final: re-registration happens through new stubs and new
    /// DGC messages, never by resurrecting these entries.
    pub fn on_node_dead(&mut self, node: u32) {
        if self.phase != Phase::Active || node == self.id.node {
            return;
        }
        for target in self.referenced_ids() {
            if target.node == node && self.referenced.remove(target) {
                self.lose_referenced_edge(target);
            }
        }
        let departed: Vec<AoId> = self
            .referencers
            .iter()
            .map(|(id, _)| id)
            .filter(|id| id.node == node)
            .collect();
        for r in departed {
            if self.referencers.remove(r) {
                self.bump_clock(ClockBumpReason::LostReferencer);
            }
        }
    }

    /// The activity transitioned busy → idle: bump the clock (§3.2 — the
    /// primary reason the clock exists; an object that alternates between
    /// idle and busy must invalidate in-progress consensus attempts).
    /// `now` timestamps the transition for the collection-latency
    /// histograms (idle → consensus → collected).
    pub fn on_became_idle(&mut self, now: Time) {
        if self.phase != Phase::Active {
            return;
        }
        self.last_idle_at = Some(now);
        self.bump_clock(ClockBumpReason::BecameIdle);
    }

    // ------------------------------------------------------------------
    // Algorithm 2: every TTB
    // ------------------------------------------------------------------

    /// Periodic broadcast and termination checks. `idle` is the
    /// middleware's idleness verdict (waiting for a request; an object
    /// waiting on a future is *busy*, §4.1). Roots (registered objects,
    /// dummy referencers) must always be reported busy.
    ///
    /// Convenience wrapper over [`Self::on_tick_into`] that allocates
    /// its own buffers — fine for tests and single activities; a sweep
    /// over many activities should use `on_tick_into` with reused
    /// [`SweepScratch`] and sink.
    pub fn on_tick(&mut self, now: Time, idle: bool) -> Vec<Action> {
        let mut actions = Vec::new();
        let mut scratch = SweepScratch::new();
        self.on_tick_into(now, idle, &mut scratch, &mut actions);
        actions
    }

    /// [`Self::on_tick`], emitting into `sink` with caller-owned
    /// scratch buffers — the batched-sweep hot path: one pass over the
    /// tables, zero allocations when the buffers are warm, actions
    /// flowing straight toward the egress plane instead of through a
    /// per-activity `Vec`.
    pub fn on_tick_into(
        &mut self,
        now: Time,
        idle: bool,
        scratch: &mut SweepScratch,
        sink: &mut impl ActionSink,
    ) {
        match self.phase {
            Phase::Dead => return,
            Phase::Dying { since, reason } => {
                // §4.3: wait TTA, then terminate. No heartbeats meanwhile.
                if now.since(since) >= self.config.tta {
                    self.phase = Phase::Dead;
                    self.record_collected(now, reason, Some(since));
                    sink.emit(self.id, Action::Terminate { reason });
                }
                return;
            }
            Phase::Active => {}
        }

        if let Some(obs) = &self.obs {
            if let Some(prev) = self.last_tick_at {
                obs.ttb_round.record(now.since(prev).as_nanos());
            }
        }
        self.last_tick_at = Some(now);

        // Loss of referencers: silent for TTA (or 2·their TTB + MaxComm).
        scratch.expired.clear();
        self.referencers.expire_silent_into(
            now,
            self.config.tta,
            self.config.max_comm,
            &mut scratch.expired,
        );
        for _ in 0..scratch.expired.len() {
            self.bump_clock(ClockBumpReason::LostReferencer);
        }

        if idle {
            // Acyclic garbage (§3.1): no DGC message for TTA.
            let timeout = self
                .referencers
                .max_expiry(self.config.tta, self.config.max_comm);
            if now.since(self.last_message_timestamp) > timeout {
                self.phase = Phase::Dead;
                self.record_collected(now, TerminateReason::Acyclic, None);
                sink.emit(
                    self.id,
                    Action::Terminate {
                        reason: TerminateReason::Acyclic,
                    },
                );
                return;
            }

            // Cyclic garbage (§3.2): we own the final activity clock and
            // every referencer agreed on it. The non-empty guard keeps
            // freshly created objects on the acyclic path, whose TTA
            // covers in-flight first messages (see DESIGN.md).
            if self.clock.is_owned_by(self.id)
                && !self.referencers.is_empty()
                && self.referencers.agree(self.clock)
            {
                self.stats.consensus_detected += 1;
                if let Some(obs) = &self.obs {
                    obs.consensus_detected.incr();
                    if let Some(idle) = self.last_idle_at {
                        obs.idle_to_consensus.record(now.since(idle).as_nanos());
                    }
                }
                if self.config.propagate_consensus {
                    self.phase = Phase::Dying {
                        since: now,
                        reason: TerminateReason::CyclicDetected,
                    };
                    return;
                }
                self.phase = Phase::Dead;
                self.record_collected(now, TerminateReason::CyclicDetected, Some(now));
                sink.emit(
                    self.id,
                    Action::Terminate {
                        reason: TerminateReason::CyclicDetected,
                    },
                );
                return;
            }
        }

        self.adapt_ttb(idle);

        // Broadcast: every reachable referenced target, plus the targets
        // still owed their first message.
        scratch.targets.clear();
        scratch.dropped.clear();
        if self.referenced.has_pending_drops() {
            // Rare two-phase order: edges kept only for a promised
            // first message drop first and bump the clock, then every
            // target hears the post-drop clock.
            self.referenced
                .broadcast_targets_into(&mut scratch.targets, &mut scratch.dropped);
            for i in 0..scratch.dropped.len() {
                self.lose_referenced_edge(scratch.dropped[i]);
            }
            for i in 0..scratch.targets.len() {
                let dest = scratch.targets[i];
                let consensus = self.consensus_bit_for(dest, idle);
                self.stats.messages_sent += 1;
                sink.emit(
                    self.id,
                    Action::SendMessage {
                        to: dest,
                        message: DgcMessage {
                            sender: self.id,
                            clock: self.clock,
                            consensus,
                            sender_ttb: self.current_ttb,
                        },
                    },
                );
            }
            return;
        }
        // Hot path: no drop can occur this tick, so the broadcast is
        // one fused pass — each target's consensus bit reads the
        // edge's last response in place
        // ([`ReferencedTable::for_each_broadcast_target`]) instead of
        // re-searching the table once per destination.
        let id = self.id;
        let clock = self.clock;
        let parent = self.parent;
        let ttb = self.current_ttb;
        let referencers = &self.referencers;
        let stats = &mut self.stats;
        self.referenced
            .for_each_broadcast_target(&mut scratch.dropped, |dest, last| {
                // `consensus_bit_for`, inlined over the walk.
                let consensus = idle
                    && last.is_some_and(|r| r.clock == clock)
                    && (clock.is_owned_by(id) || parent.is_some())
                    && (parent != Some(dest) || referencers.agree(clock));
                stats.messages_sent += 1;
                sink.emit(
                    id,
                    Action::SendMessage {
                        to: dest,
                        message: DgcMessage {
                            sender: id,
                            clock,
                            consensus,
                            sender_ttb: ttb,
                        },
                    },
                );
            });
        debug_assert!(scratch.dropped.is_empty());
    }

    /// The consensus bit sent toward `dest` (Algorithm 2, reconstructed):
    ///
    /// ```text
    /// idle ∧ dest.lastResponse.clock = clock
    ///      ∧ (clock.owner = self ∨ parent ≠ nil)
    ///      ∧ (parent ≠ dest ∨ referencers.agree(clock))
    /// ```
    ///
    /// i.e. the parent receives the conjunction of our local agreement
    /// and our referencers'; everyone else only our local agreement.
    fn consensus_bit_for(&self, dest: AoId, idle: bool) -> bool {
        if !idle {
            return false;
        }
        let candidate_matches = self
            .referenced
            .last_response(dest)
            .is_some_and(|r| r.clock == self.clock);
        if !candidate_matches {
            return false;
        }
        if !(self.clock.is_owned_by(self.id) || self.parent.is_some()) {
            return false;
        }
        self.parent != Some(dest) || self.referencers.agree(self.clock)
    }

    // ------------------------------------------------------------------
    // Algorithm 3: reception of a DGC message
    // ------------------------------------------------------------------

    /// Handles a DGC message; always answers with a DGC response (over
    /// the same FIFO connection).
    pub fn on_message(&mut self, now: Time, message: &DgcMessage) -> Vec<Action> {
        let mut actions = Vec::new();
        self.on_message_into(now, message, &mut actions);
        actions
    }

    /// [`Self::on_message`] emitting into `sink` — the delivery hot
    /// path's allocation-free form (a response is at most one action).
    pub fn on_message_into(&mut self, now: Time, message: &DgcMessage, sink: &mut impl ActionSink) {
        if self.phase == Phase::Dead {
            return;
        }
        self.stats.messages_received += 1;

        if let Phase::Dying { .. } = self.phase {
            // §4.3: a dying object no longer updates its state but keeps
            // answering so the consensus outcome propagates.
            self.stats.responses_sent += 1;
            sink.emit(
                self.id,
                Action::SendResponse {
                    to: message.sender,
                    response: self.build_response(true),
                },
            );
            return;
        }

        if message.clock > self.clock {
            self.clock = message.clock;
            self.parent = None;
            self.tree_depth = None;
        }
        self.referencers.record_message(
            message.sender,
            message.clock,
            message.consensus,
            now,
            message.sender_ttb,
        );
        self.last_message_timestamp = now;

        self.stats.responses_sent += 1;
        sink.emit(
            self.id,
            Action::SendResponse {
                to: message.sender,
                response: self.build_response(false),
            },
        );
    }

    fn build_response(&self, consensus_reached: bool) -> DgcResponse {
        // hasParent ← parent ≠ nil ∨ clock.owner = self  (Algorithm 3).
        let has_parent = self.parent.is_some() || self.clock.is_owned_by(self.id);
        let depth = match self.config.parent_policy {
            ParentPolicy::FirstResponder => None,
            ParentPolicy::MinDepth => {
                if self.clock.is_owned_by(self.id) {
                    Some(0)
                } else {
                    self.tree_depth
                }
            }
        };
        DgcResponse {
            responder: self.id,
            clock: self.clock,
            has_parent,
            consensus_reached,
            depth,
        }
    }

    // ------------------------------------------------------------------
    // Algorithm 4: reception of a DGC response
    // ------------------------------------------------------------------

    /// Handles the DGC response sent by referenced object `from`. `idle`
    /// is the middleware's current idleness verdict, needed by the
    /// consensus-propagation optimization.
    pub fn on_response(
        &mut self,
        now: Time,
        from: AoId,
        response: &DgcResponse,
        idle: bool,
    ) -> Vec<Action> {
        if self.phase != Phase::Active {
            return Vec::new();
        }
        self.stats.responses_received += 1;

        // ref.lastResponse ← response. Late responses for edges we
        // already dropped are ignored.
        if !self.referenced.record_response(from, *response) {
            return Vec::new();
        }

        // §4.3 step 4: a referenced object reports the consensus closed.
        // Clock equality implies we are in the same garbage cycle (clocks
        // only flow along reference edges; see DESIGN.md), so we are part
        // of the agreed set and may terminate without our own consensus.
        if response.consensus_reached
            && idle
            && response.clock == self.clock
            && self.config.propagate_consensus
        {
            self.stats.consensus_propagated += 1;
            if let Some(obs) = &self.obs {
                obs.consensus_propagated.incr();
            }
            self.phase = Phase::Dying {
                since: now,
                reason: TerminateReason::CyclicPropagated,
            };
            return Vec::new();
        }

        // Algorithm 4 (reconstructed): adopt a parent iff
        // response.clock = clock ∧ response.hasParent ∧ parent = nil
        //                        ∧ clock.owner ≠ self.
        let candidate_ok = response.clock == self.clock && response.has_parent;
        if candidate_ok && self.parent.is_none() && !self.clock.is_owned_by(self.id) {
            self.parent = Some(from);
            self.tree_depth = response.depth.map(|d| d.saturating_add(1));
            self.stats.parents_adopted += 1;
            return Vec::new();
        }

        match self.config.parent_policy {
            ParentPolicy::FirstResponder => {}
            ParentPolicy::MinDepth => {
                if self.parent == Some(from) {
                    // Keep our depth in sync with the parent's.
                    self.tree_depth = response.depth.map(|d| d.saturating_add(1));
                } else if candidate_ok && !self.clock.is_owned_by(self.id) {
                    // §7.2 extension: switch to a strictly shallower parent.
                    if let (Some(new_d), Some(cur_d)) = (response.depth, self.tree_depth) {
                        if new_d.saturating_add(1) < cur_d {
                            self.parent = Some(from);
                            self.tree_depth = Some(new_d.saturating_add(1));
                            self.stats.parents_switched += 1;
                        }
                    }
                }
            }
        }
        Vec::new()
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn lose_referenced_edge(&mut self, target: AoId) {
        if self.parent == Some(target) {
            self.parent = None;
            self.tree_depth = None;
        }
        self.bump_clock(ClockBumpReason::LostReferenced);
    }

    /// The §3.2 increment: `ID:Value` → `self:Value+1`; the owner of the
    /// newest clock is an originator, so the parent is reset.
    fn bump_clock(&mut self, reason: ClockBumpReason) {
        self.clock = self.clock.bumped_by(self.id);
        self.parent = None;
        self.tree_depth = None;
        self.stats.record_bump(reason);
        if let Some(obs) = &self.obs {
            obs.bump_counter(reason).incr();
        }
    }

    /// Feeds the collection-latency histograms at the moment this
    /// endpoint goes `Dead`. `dying_since` is when consensus put it in
    /// the Dying phase (the §4.3 TTA wait), `None` on the acyclic path.
    fn record_collected(&self, now: Time, reason: TerminateReason, dying_since: Option<Time>) {
        let Some(obs) = &self.obs else {
            return;
        };
        match reason {
            TerminateReason::Acyclic => obs.collected_acyclic.incr(),
            _ => obs.collected_cyclic.incr(),
        }
        obs.spawn_to_collected
            .record(now.since(self.created_at).as_nanos());
        if let Some(idle) = self.last_idle_at {
            obs.idle_to_collected.record(now.since(idle).as_nanos());
        }
        if let Some(since) = dying_since {
            obs.consensus_to_collected
                .record(now.since(since).as_nanos());
        }
    }

    /// §7.1 adaptive heartbeat, following the paper's two criteria:
    /// *augment the broadcasting frequency when some garbage is
    /// suspected* — the object is idle with a parent (or ownership) and
    /// some referencer already agrees — and *lower it when the
    /// distributed system is highly loaded* — here, when the object is
    /// busy. An idle object with no suspicion decays back toward the
    /// configured base TTB.
    fn adapt_ttb(&mut self, idle: bool) {
        let TimingMode::Adaptive { min_ttb, max_ttb } = self.config.timing else {
            return;
        };
        let suspects_garbage = idle
            && (self.clock.is_owned_by(self.id) || self.parent.is_some())
            && self
                .referencers
                .iter()
                .any(|(_, r)| r.consensus && r.clock == self.clock);
        let step = self.current_ttb.div(4).max(Dur::from_millis(1));
        if suspects_garbage {
            self.current_ttb = min_ttb.max(self.current_ttb.div(2));
        } else if !idle {
            // Highly loaded: back off.
            self.current_ttb = max_ttb.min(self.current_ttb.saturating_add(step));
        } else {
            // Idle, nothing suspected: drift back to the base period.
            let base = self.config.ttb.clamp(min_ttb, max_ttb);
            if self.current_ttb < base {
                self.current_ttb = base.min(self.current_ttb.saturating_add(step));
            } else if self.current_ttb > base {
                self.current_ttb = base.max(Dur::from_nanos(
                    self.current_ttb.as_nanos().saturating_sub(step.as_nanos()),
                ));
            }
        }
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// This endpoint's id.
    pub fn id(&self) -> AoId {
        self.id
    }

    /// Current activity clock.
    pub fn clock(&self) -> NamedClock {
        self.clock
    }

    /// Current parent in the reverse spanning tree.
    pub fn parent(&self) -> Option<AoId> {
        self.parent
    }

    /// Current depth in the reverse spanning tree (MinDepth policy only;
    /// 0 for an originator).
    pub fn tree_depth(&self) -> Option<u32> {
        if self.clock.is_owned_by(self.id) {
            Some(0)
        } else {
            self.tree_depth
        }
    }

    /// Life-cycle phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// True once terminated.
    pub fn is_dead(&self) -> bool {
        self.phase == Phase::Dead
    }

    /// When a dying endpoint's §4.3 TTA wait ends: the first tick at or
    /// after this instant terminates it, and no earlier tick does
    /// anything. `None` unless dying.
    pub fn dying_deadline(&self) -> Option<Time> {
        match self.phase {
            Phase::Dying { since, .. } => Some(since + self.config.tta),
            Phase::Active | Phase::Dead => None,
        }
    }

    /// The heartbeat period the runtime should use for the next tick
    /// (constant unless the adaptive mode is on).
    pub fn current_ttb(&self) -> Dur {
        self.current_ttb
    }

    /// The configuration.
    pub fn config(&self) -> &DgcConfig {
        &self.config
    }

    /// Number of currently known referencers.
    pub fn referencer_count(&self) -> usize {
        self.referencers.len()
    }

    /// Number of currently tracked referenced edges.
    pub fn referenced_count(&self) -> usize {
        self.referenced.len()
    }

    /// Ids of currently tracked referenced edges (for runtimes that need
    /// to tear down connections on termination).
    pub fn referenced_ids(&self) -> Vec<AoId> {
        self.referenced.iter().map(|(id, _)| id).collect()
    }

    /// Protocol counters.
    pub fn stats(&self) -> &DgcStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ao(n: u32) -> AoId {
        AoId::new(n, 0)
    }

    fn cfg() -> DgcConfig {
        DgcConfig::builder()
            .ttb(Dur::from_secs(30))
            .tta(Dur::from_secs(61))
            .max_comm(Dur::from_millis(500))
            .build()
    }

    fn t(s: u64) -> Time {
        Time::from_secs(s)
    }

    #[test]
    fn fresh_state_is_active_self_owned() {
        let s = DgcState::new(ao(1), t(0), cfg());
        assert_eq!(s.phase(), Phase::Active);
        assert_eq!(s.clock(), NamedClock::initial(ao(1)));
        assert_eq!(s.parent(), None);
        assert_eq!(s.referencer_count(), 0);
    }

    #[test]
    fn tick_broadcasts_to_referenced() {
        let mut s = DgcState::new(ao(1), t(0), cfg());
        s.on_stub_deserialized(ao(2));
        s.on_stub_deserialized(ao(3));
        let actions = s.on_tick(t(1), false);
        let sends: Vec<_> = actions
            .iter()
            .filter_map(|a| match a {
                Action::SendMessage { to, message } => Some((*to, *message)),
                _ => None,
            })
            .collect();
        assert_eq!(sends.len(), 2);
        assert!(sends.iter().all(|(_, m)| m.sender == ao(1)));
        assert!(
            sends.iter().all(|(_, m)| !m.consensus),
            "busy sender never consents"
        );
    }

    #[test]
    fn acyclic_timeout_terminates_idle_object() {
        let mut s = DgcState::new(ao(1), t(0), cfg());
        // Just under TTA: alive.
        assert!(s.on_tick(t(61), true).is_empty());
        // Beyond TTA: terminate.
        let actions = s.on_tick(t(62), true);
        assert_eq!(
            actions,
            vec![Action::Terminate {
                reason: TerminateReason::Acyclic
            }]
        );
        assert!(s.is_dead());
        // Dead state ignores further input.
        assert!(s.on_tick(t(100), true).is_empty());
    }

    #[test]
    fn busy_object_never_times_out() {
        let mut s = DgcState::new(ao(1), t(0), cfg());
        assert!(s.on_tick(t(1_000_000), false).is_empty());
        assert_eq!(s.phase(), Phase::Active);
    }

    #[test]
    fn node_dead_drops_referenced_edges_and_referencers() {
        let mut s = DgcState::new(ao(1), t(0), cfg());
        // Referenced: two activities on node 2, one on node 3.
        s.on_stub_deserialized(AoId::new(2, 0));
        s.on_stub_deserialized(AoId::new(2, 7));
        s.on_stub_deserialized(ao(3));
        // Referencers: one on node 2, one on node 4.
        for sender in [AoId::new(2, 3), ao(4)] {
            s.on_message(
                t(1),
                &DgcMessage {
                    sender,
                    clock: NamedClock::initial(sender),
                    consensus: false,
                    sender_ttb: Dur::from_secs(30),
                },
            );
        }
        let clock_before = s.clock();
        s.on_node_dead(2);
        assert_eq!(s.referenced_count(), 1, "edges toward node 2 dropped");
        assert_eq!(s.referenced_ids(), vec![ao(3)]);
        assert_eq!(s.referencer_count(), 1, "node 2's referencer departed");
        assert!(
            s.clock().value > clock_before.value && s.clock().is_owned_by(ao(1)),
            "losing edges and referencers bumps the activity clock"
        );
        // Subsequent broadcasts no longer target the dead node.
        let actions = s.on_tick(t(2), false);
        assert!(actions.iter().all(|a| match a {
            Action::SendMessage { to, .. } => to.node != 2,
            _ => true,
        }));
    }

    #[test]
    fn node_dead_ignores_self_and_unknown_nodes() {
        let mut s = DgcState::new(ao(1), t(0), cfg());
        s.on_stub_deserialized(AoId::new(1, 5)); // co-hosted neighbour
        let clock_before = s.clock();
        s.on_node_dead(1); // own node: nonsense, must be a no-op
        s.on_node_dead(9); // nothing known there
        assert_eq!(s.referenced_count(), 1);
        assert_eq!(s.clock(), clock_before, "no edge lost, no bump");
    }

    #[test]
    fn dgc_message_refreshes_liveness() {
        let mut s = DgcState::new(ao(1), t(0), cfg());
        let m = DgcMessage {
            sender: ao(2),
            clock: NamedClock::initial(ao(2)),
            consensus: false,
            sender_ttb: Dur::from_secs(30),
        };
        s.on_message(t(50), &m);
        assert!(s.on_tick(t(100), true).is_empty(), "heard from ao2 at t=50");
        assert_eq!(s.referencer_count(), 1);
    }

    #[test]
    fn message_reception_returns_response_with_algorithm3_fields() {
        let mut s = DgcState::new(ao(1), t(0), cfg());
        let m = DgcMessage {
            sender: ao(2),
            clock: NamedClock {
                value: 5,
                owner: ao(2),
            },
            consensus: true,
            sender_ttb: Dur::from_secs(30),
        };
        let actions = s.on_message(t(1), &m);
        assert_eq!(actions.len(), 1);
        let Action::SendResponse { to, response } = &actions[0] else {
            panic!("expected a response");
        };
        assert_eq!(*to, ao(2));
        // Greater clock adopted, parent reset; owner is ao2 so we do NOT
        // have a parent and are not the owner => hasParent = false.
        assert_eq!(
            response.clock,
            NamedClock {
                value: 5,
                owner: ao(2)
            }
        );
        assert!(!response.has_parent);
        assert!(!response.consensus_reached);
        assert_eq!(
            s.clock(),
            NamedClock {
                value: 5,
                owner: ao(2)
            }
        );
    }

    #[test]
    fn smaller_clock_is_not_adopted() {
        let mut s = DgcState::new(ao(5), t(0), cfg());
        s.on_became_idle(t(0)); // clock -> ao5:1
        let m = DgcMessage {
            sender: ao(2),
            clock: NamedClock {
                value: 0,
                owner: ao(2),
            },
            consensus: false,
            sender_ttb: Dur::from_secs(30),
        };
        s.on_message(t(1), &m);
        assert_eq!(
            s.clock(),
            NamedClock {
                value: 1,
                owner: ao(5)
            }
        );
    }

    #[test]
    fn becoming_idle_bumps_and_takes_ownership() {
        let mut s = DgcState::new(ao(1), t(0), cfg());
        let m = DgcMessage {
            sender: ao(2),
            clock: NamedClock {
                value: 9,
                owner: ao(2),
            },
            consensus: false,
            sender_ttb: Dur::from_secs(30),
        };
        s.on_message(t(1), &m);
        s.on_became_idle(t(1));
        assert_eq!(
            s.clock(),
            NamedClock {
                value: 10,
                owner: ao(1)
            }
        );
        assert_eq!(s.stats().bumps_became_idle, 1);
    }

    #[test]
    fn parent_adoption_follows_algorithm4() {
        let mut s = DgcState::new(ao(1), t(0), cfg());
        s.on_stub_deserialized(ao(2));
        // Take a foreign clock so we are not the owner.
        s.on_message(
            t(1),
            &DgcMessage {
                sender: ao(9),
                clock: NamedClock {
                    value: 4,
                    owner: ao(9),
                },
                consensus: false,
                sender_ttb: Dur::from_secs(30),
            },
        );
        let resp = DgcResponse {
            responder: ao(2),
            clock: NamedClock {
                value: 4,
                owner: ao(9),
            },
            has_parent: true,
            consensus_reached: false,
            depth: None,
        };
        s.on_response(t(2), ao(2), &resp, true);
        assert_eq!(s.parent(), Some(ao(2)));
        assert_eq!(s.stats().parents_adopted, 1);
    }

    #[test]
    fn owner_never_adopts_a_parent() {
        let mut s = DgcState::new(ao(1), t(0), cfg());
        s.on_stub_deserialized(ao(2));
        let resp = DgcResponse {
            responder: ao(2),
            clock: s.clock(), // matches, and we own it
            has_parent: true,
            consensus_reached: false,
            depth: None,
        };
        s.on_response(t(1), ao(2), &resp, true);
        assert_eq!(s.parent(), None, "clock owner is the tree root");
    }

    #[test]
    fn mismatched_or_parentless_responses_are_not_adopted() {
        let mut s = DgcState::new(ao(1), t(0), cfg());
        s.on_stub_deserialized(ao(2));
        s.on_message(
            t(1),
            &DgcMessage {
                sender: ao(9),
                clock: NamedClock {
                    value: 4,
                    owner: ao(9),
                },
                consensus: false,
                sender_ttb: Dur::from_secs(30),
            },
        );
        // Wrong clock.
        s.on_response(
            t(2),
            ao(2),
            &DgcResponse {
                responder: ao(2),
                clock: NamedClock {
                    value: 3,
                    owner: ao(9),
                },
                has_parent: true,
                consensus_reached: false,
                depth: None,
            },
            true,
        );
        assert_eq!(s.parent(), None);
        // Right clock but cannot lead to the originator.
        s.on_response(
            t(3),
            ao(2),
            &DgcResponse {
                responder: ao(2),
                clock: NamedClock {
                    value: 4,
                    owner: ao(9),
                },
                has_parent: false,
                consensus_reached: false,
                depth: None,
            },
            true,
        );
        assert_eq!(s.parent(), None);
    }

    #[test]
    fn greater_message_clock_resets_parent() {
        let mut s = DgcState::new(ao(1), t(0), cfg());
        s.on_stub_deserialized(ao(2));
        s.on_message(
            t(1),
            &DgcMessage {
                sender: ao(9),
                clock: NamedClock {
                    value: 4,
                    owner: ao(9),
                },
                consensus: false,
                sender_ttb: Dur::from_secs(30),
            },
        );
        s.on_response(
            t(2),
            ao(2),
            &DgcResponse {
                responder: ao(2),
                clock: NamedClock {
                    value: 4,
                    owner: ao(9),
                },
                has_parent: true,
                consensus_reached: false,
                depth: None,
            },
            true,
        );
        assert_eq!(s.parent(), Some(ao(2)));
        s.on_message(
            t(3),
            &DgcMessage {
                sender: ao(9),
                clock: NamedClock {
                    value: 7,
                    owner: ao(9),
                },
                consensus: false,
                sender_ttb: Dur::from_secs(30),
            },
        );
        assert_eq!(s.parent(), None, "Algorithm 3 resets the parent");
    }

    #[test]
    fn loss_of_referencer_bumps_clock() {
        let mut s = DgcState::new(ao(1), t(0), cfg());
        s.on_message(
            t(0),
            &DgcMessage {
                sender: ao(2),
                clock: NamedClock {
                    value: 8,
                    owner: ao(2),
                },
                consensus: false,
                sender_ttb: Dur::from_secs(30),
            },
        );
        assert_eq!(s.referencer_count(), 1);
        // ao2 silent past TTA: lost; Fig. 5 — clock becomes self:9.
        s.on_tick(t(62), false);
        assert_eq!(s.referencer_count(), 0);
        assert_eq!(
            s.clock(),
            NamedClock {
                value: 9,
                owner: ao(1)
            }
        );
        assert_eq!(s.stats().bumps_lost_referencer, 1);
    }

    #[test]
    fn loss_of_referenced_bumps_clock_and_drops_parent() {
        let mut s = DgcState::new(ao(1), t(0), cfg());
        s.on_stub_deserialized(ao(2));
        s.on_tick(t(1), false); // clear must_send
        s.on_message(
            t(2),
            &DgcMessage {
                sender: ao(9),
                clock: NamedClock {
                    value: 4,
                    owner: ao(9),
                },
                consensus: false,
                sender_ttb: Dur::from_secs(30),
            },
        );
        s.on_response(
            t(3),
            ao(2),
            &DgcResponse {
                responder: ao(2),
                clock: NamedClock {
                    value: 4,
                    owner: ao(9),
                },
                has_parent: true,
                consensus_reached: false,
                depth: None,
            },
            true,
        );
        assert_eq!(s.parent(), Some(ao(2)));
        s.on_stubs_collected(ao(2));
        assert_eq!(s.parent(), None);
        assert_eq!(
            s.clock(),
            NamedClock {
                value: 5,
                owner: ao(1)
            }
        );
        assert_eq!(s.stats().bumps_lost_referenced, 1);
        assert_eq!(s.referenced_count(), 0);
    }

    #[test]
    fn send_failure_behaves_like_edge_loss() {
        let mut s = DgcState::new(ao(1), t(0), cfg());
        s.on_stub_deserialized(ao(2));
        s.on_tick(t(1), false);
        let before = s.clock();
        s.on_send_failure(ao(2));
        assert!(s.clock() > before);
        assert_eq!(s.referenced_count(), 0);
        // Unknown target: no bump.
        let c = s.clock();
        s.on_send_failure(ao(7));
        assert_eq!(s.clock(), c);
    }

    #[test]
    fn must_send_once_sends_exactly_one_message_after_drop() {
        let mut s = DgcState::new(ao(1), t(0), cfg());
        s.on_stub_deserialized(ao(2));
        s.on_stubs_collected(ao(2)); // collected before any broadcast
        let first = s.on_tick(t(1), false);
        assert!(
            first
                .iter()
                .any(|a| matches!(a, Action::SendMessage { to, .. } if *to == ao(2))),
            "the promised message must go out"
        );
        let second = s.on_tick(t(31), false);
        assert!(
            !second
                .iter()
                .any(|a| matches!(a, Action::SendMessage { .. })),
            "no further messages after the promise is honoured"
        );
    }

    #[test]
    fn consensus_bit_rules() {
        // Build: self ao1 references ao2 (parent) and ao3 (non-parent),
        // all sharing clock owned by ao9.
        let mut s = DgcState::new(ao(1), t(0), cfg());
        s.on_stub_deserialized(ao(2));
        s.on_stub_deserialized(ao(3));
        let clk = NamedClock {
            value: 4,
            owner: ao(9),
        };
        s.on_message(
            t(1),
            &DgcMessage {
                sender: ao(9),
                clock: clk,
                consensus: false,
                sender_ttb: Dur::from_secs(30),
            },
        );
        let resp = |r: u32| DgcResponse {
            responder: ao(r),
            clock: clk,
            has_parent: true,
            consensus_reached: false,
            depth: None,
        };
        s.on_response(t(2), ao(2), &resp(2), true);
        s.on_response(t(2), ao(3), &resp(3), true);
        assert_eq!(s.parent(), Some(ao(2)));

        // Referencer ao9 does NOT yet agree (consensus=false above).
        let actions = s.on_tick(t(3), true);
        let bit = |to: AoId| {
            actions
                .iter()
                .find_map(|a| match a {
                    Action::SendMessage { to: d, message } if *d == to => Some(message.consensus),
                    _ => None,
                })
                .expect("message sent")
        };
        assert!(
            !bit(ao(2)),
            "toward the parent: needs referencers.agree, ao9 disagrees"
        );
        assert!(bit(ao(3)), "toward non-parent: local agreement only");

        // Now ao9 agrees: full conjunction holds toward the parent too.
        s.on_message(
            t(4),
            &DgcMessage {
                sender: ao(9),
                clock: clk,
                consensus: true,
                sender_ttb: Dur::from_secs(30),
            },
        );
        let actions = s.on_tick(t(5), true);
        let bit = |to: AoId| {
            actions
                .iter()
                .find_map(|a| match a {
                    Action::SendMessage { to: d, message } if *d == to => Some(message.consensus),
                    _ => None,
                })
                .expect("message sent")
        };
        assert!(bit(ao(2)));
        assert!(bit(ao(3)));
    }

    #[test]
    fn consensus_bit_false_without_matching_response() {
        let mut s = DgcState::new(ao(1), t(0), cfg());
        s.on_stub_deserialized(ao(2));
        // No response from ao2 yet: cannot consent.
        let actions = s.on_tick(t(1), true);
        let Action::SendMessage { message, .. } = &actions[0] else {
            panic!()
        };
        assert!(!message.consensus);
    }

    #[test]
    fn cyclic_termination_requires_ownership_agreement_and_referencers() {
        let mut s = DgcState::new(ao(1), t(0), cfg());
        // A referencer that agrees with our own clock.
        let mine = s.clock();
        s.on_message(
            t(1),
            &DgcMessage {
                sender: ao(2),
                clock: mine,
                consensus: true,
                sender_ttb: Dur::from_secs(30),
            },
        );
        // Busy: no termination.
        assert!(s
            .on_tick(t(2), false)
            .iter()
            .all(|a| !matches!(a, Action::Terminate { .. })));
        // Idle: consensus detected -> dying phase (optimization on).
        s.on_tick(t(3), true);
        assert!(matches!(s.phase(), Phase::Dying { .. }));
        // After TTA, terminates with the cyclic reason.
        let actions = s.on_tick(t(3 + 61), true);
        assert_eq!(
            actions,
            vec![Action::Terminate {
                reason: TerminateReason::CyclicDetected
            }]
        );
    }

    #[test]
    fn cyclic_termination_without_optimization_is_immediate() {
        let mut s = DgcState::new(
            ao(1),
            t(0),
            DgcConfig::builder()
                .ttb(Dur::from_secs(30))
                .tta(Dur::from_secs(61))
                .propagate_consensus(false)
                .build(),
        );
        let mine = s.clock();
        s.on_message(
            t(1),
            &DgcMessage {
                sender: ao(2),
                clock: mine,
                consensus: true,
                sender_ttb: Dur::from_secs(30),
            },
        );
        let actions = s.on_tick(t(2), true);
        assert_eq!(
            actions,
            vec![Action::Terminate {
                reason: TerminateReason::CyclicDetected
            }]
        );
    }

    #[test]
    fn no_vacuous_cyclic_termination_without_referencers() {
        let mut s = DgcState::new(ao(1), t(0), cfg());
        // Idle, owner of own clock, zero referencers: must NOT die
        // cyclically at t=1 (acyclic TTA covers it later).
        let actions = s.on_tick(t(1), true);
        assert!(actions
            .iter()
            .all(|a| !matches!(a, Action::Terminate { .. })));
        assert_eq!(s.phase(), Phase::Active);
    }

    #[test]
    fn non_owner_never_detects_consensus() {
        let mut s = DgcState::new(ao(1), t(0), cfg());
        let foreign = NamedClock {
            value: 9,
            owner: ao(9),
        };
        s.on_message(
            t(1),
            &DgcMessage {
                sender: ao(2),
                clock: foreign,
                consensus: true,
                sender_ttb: Dur::from_secs(30),
            },
        );
        s.on_tick(t(2), true);
        assert_eq!(
            s.phase(),
            Phase::Active,
            "only the clock owner may conclude"
        );
    }

    #[test]
    fn dying_object_answers_with_consensus_reached() {
        let mut s = DgcState::new(ao(1), t(0), cfg());
        let mine = s.clock();
        s.on_message(
            t(1),
            &DgcMessage {
                sender: ao(2),
                clock: mine,
                consensus: true,
                sender_ttb: Dur::from_secs(30),
            },
        );
        s.on_tick(t(2), true); // -> Dying
        let actions = s.on_message(
            t(3),
            &DgcMessage {
                sender: ao(2),
                clock: mine,
                consensus: true,
                sender_ttb: Dur::from_secs(30),
            },
        );
        let Action::SendResponse { response, .. } = &actions[0] else {
            panic!()
        };
        assert!(response.consensus_reached);
        // And it no longer broadcasts.
        s.on_stub_deserialized(ao(3));
        assert!(s.on_tick(t(4), true).is_empty());
    }

    #[test]
    fn propagated_consensus_kills_idle_cycle_member() {
        let mut s = DgcState::new(ao(1), t(0), cfg());
        s.on_stub_deserialized(ao(2));
        // Our clock must equal the final clock for the propagation to
        // apply (same-SCC proof in DESIGN.md).
        let fin = s.clock();
        let resp = DgcResponse {
            responder: ao(2),
            clock: fin,
            has_parent: true,
            consensus_reached: true,
            depth: None,
        };
        s.on_response(t(1), ao(2), &resp, true);
        assert!(matches!(s.phase(), Phase::Dying { .. }));
        assert_eq!(s.stats().consensus_propagated, 1);
    }

    #[test]
    fn propagated_consensus_ignored_when_busy_or_clock_differs() {
        let mut s = DgcState::new(ao(1), t(0), cfg());
        s.on_stub_deserialized(ao(2));
        let fin = s.clock();
        let resp = DgcResponse {
            responder: ao(2),
            clock: fin,
            has_parent: true,
            consensus_reached: true,
            depth: None,
        };
        // Busy: survive.
        s.on_response(t(1), ao(2), &resp, false);
        assert_eq!(s.phase(), Phase::Active);
        // Different clock: survive (we are not in that cycle).
        let other = DgcResponse {
            clock: NamedClock {
                value: 99,
                owner: ao(9),
            },
            ..resp
        };
        s.on_response(t(2), ao(2), &other, true);
        assert_eq!(s.phase(), Phase::Active);
    }

    #[test]
    fn response_clock_never_updates_own_clock() {
        // Fig. 4: activity clocks are not propagated in DGC responses.
        let mut s = DgcState::new(ao(1), t(0), cfg());
        s.on_stub_deserialized(ao(2));
        let before = s.clock();
        let resp = DgcResponse {
            responder: ao(2),
            clock: NamedClock {
                value: 50,
                owner: ao(2),
            },
            has_parent: true,
            consensus_reached: false,
            depth: None,
        };
        s.on_response(t(1), ao(2), &resp, true);
        assert_eq!(s.clock(), before);
    }

    #[test]
    fn min_depth_policy_switches_to_shallower_parent() {
        let mut s = DgcState::new(
            ao(1),
            t(0),
            DgcConfig::builder()
                .parent_policy(ParentPolicy::MinDepth)
                .build(),
        );
        s.on_stub_deserialized(ao(2));
        s.on_stub_deserialized(ao(3));
        let clk = NamedClock {
            value: 4,
            owner: ao(9),
        };
        s.on_message(
            t(1),
            &DgcMessage {
                sender: ao(9),
                clock: clk,
                consensus: false,
                sender_ttb: Dur::from_secs(30),
            },
        );
        // Deep parent first.
        s.on_response(
            t(2),
            ao(2),
            &DgcResponse {
                responder: ao(2),
                clock: clk,
                has_parent: true,
                consensus_reached: false,
                depth: Some(5),
            },
            true,
        );
        assert_eq!(s.parent(), Some(ao(2)));
        assert_eq!(s.tree_depth(), Some(6));
        // Shallower candidate appears: switch.
        s.on_response(
            t(3),
            ao(3),
            &DgcResponse {
                responder: ao(3),
                clock: clk,
                has_parent: true,
                consensus_reached: false,
                depth: Some(1),
            },
            true,
        );
        assert_eq!(s.parent(), Some(ao(3)));
        assert_eq!(s.tree_depth(), Some(2));
        assert_eq!(s.stats().parents_switched, 1);
        // Deeper candidate: keep.
        s.on_response(
            t(4),
            ao(2),
            &DgcResponse {
                responder: ao(2),
                clock: clk,
                has_parent: true,
                consensus_reached: false,
                depth: Some(4),
            },
            true,
        );
        assert_eq!(s.parent(), Some(ao(3)));
    }

    #[test]
    fn min_depth_owner_reports_depth_zero() {
        let s = DgcState::new(
            ao(1),
            t(0),
            DgcConfig::builder()
                .parent_policy(ParentPolicy::MinDepth)
                .build(),
        );
        assert_eq!(s.tree_depth(), Some(0));
    }

    #[test]
    fn adaptive_ttb_shrinks_on_suspected_garbage_and_relaxes() {
        let mut s = DgcState::new(
            ao(1),
            t(0),
            DgcConfig::builder()
                .ttb(Dur::from_secs(30))
                .tta(Dur::from_secs(200))
                .timing(TimingMode::Adaptive {
                    min_ttb: Dur::from_secs(5),
                    max_ttb: Dur::from_secs(60),
                })
                .build(),
        );
        assert_eq!(s.current_ttb(), Dur::from_secs(30));
        // A referencer agreeing with our clock while we are idle => suspect.
        let mine = s.clock();
        s.on_message(
            t(1),
            &DgcMessage {
                sender: ao(2),
                clock: mine,
                consensus: true,
                sender_ttb: Dur::from_secs(30),
            },
        );
        // This tick will detect consensus; use a non-owner clock to avoid
        // that and isolate the TTB adaptation.
        s.on_message(
            t(1),
            &DgcMessage {
                sender: ao(3),
                clock: NamedClock {
                    value: 7,
                    owner: ao(3),
                },
                consensus: false,
                sender_ttb: Dur::from_secs(30),
            },
        );
        // Adopt ao3's clock (not owner), with a parent candidate:
        s.on_stub_deserialized(ao(4));
        s.on_response(
            t(2),
            ao(4),
            &DgcResponse {
                responder: ao(4),
                clock: NamedClock {
                    value: 7,
                    owner: ao(3),
                },
                has_parent: true,
                consensus_reached: false,
                depth: None,
            },
            true,
        );
        assert_eq!(s.parent(), Some(ao(4)));
        // ao2 must agree with the *current* clock for suspicion:
        s.on_message(
            t(3),
            &DgcMessage {
                sender: ao(2),
                clock: NamedClock {
                    value: 7,
                    owner: ao(3),
                },
                consensus: true,
                sender_ttb: Dur::from_secs(30),
            },
        );
        s.on_tick(t(4), true);
        assert_eq!(s.current_ttb(), Dur::from_secs(15), "halved on suspicion");
        // Busy tick: relaxes by 25%.
        s.on_tick(t(5), false);
        assert!(s.current_ttb() > Dur::from_secs(15));
    }

    #[test]
    fn dead_state_ignores_everything() {
        let mut s = DgcState::new(ao(1), t(0), cfg());
        s.on_tick(t(100), true); // acyclic death
        assert!(s.is_dead());
        let m = DgcMessage {
            sender: ao(2),
            clock: NamedClock {
                value: 1,
                owner: ao(2),
            },
            consensus: false,
            sender_ttb: Dur::from_secs(30),
        };
        assert!(s.on_message(t(101), &m).is_empty());
        assert!(s
            .on_response(
                t(101),
                ao(2),
                &DgcResponse {
                    responder: ao(2),
                    clock: NamedClock {
                        value: 1,
                        owner: ao(2)
                    },
                    has_parent: false,
                    consensus_reached: false,
                    depth: None,
                },
                true,
            )
            .is_empty());
        s.on_stub_deserialized(ao(3));
        assert_eq!(s.referenced_count(), 0);
    }

    #[test]
    fn late_response_for_dropped_edge_is_ignored() {
        let mut s = DgcState::new(ao(1), t(0), cfg());
        let resp = DgcResponse {
            responder: ao(2),
            clock: NamedClock {
                value: 3,
                owner: ao(2),
            },
            has_parent: true,
            consensus_reached: false,
            depth: None,
        };
        s.on_response(t(1), ao(2), &resp, true);
        assert_eq!(s.parent(), None, "no tracked edge, response dropped");
    }
}
