//! The referenced table (§2.2).
//!
//! For each remote active object we hold a reference to, the DGC stores
//! the last DGC response received from it and whether the edge is still
//! needed. Two mechanisms from the paper:
//!
//! * **Stub tags.** Several local stubs may denote the same remote
//!   object; the middleware gives them one shared *tag* and tells us only
//!   when the tag dies (all stubs collected) — that removal is a "loss of
//!   a referenced" which must bump the activity clock (§3.2, Fig. 6).
//! * **`must_send_once`.** A freshly deserialized reference guarantees at
//!   least one DGC message — sent on its own at once by the node kernel,
//!   or at the next broadcast — *even if the stub is immediately
//!   collected*, so a reference hopping quickly between objects keeps its
//!   target alive (§3.1).
//!
//! ## Storage
//!
//! Like [`crate::referencers`], entries are a flat `Vec` sorted by id —
//! the TTB broadcast walks it as one linear scan and
//! [`ReferencedTable::broadcast_targets_into`] fills caller-owned
//! scratch buffers instead of allocating per sweep. Iteration order is
//! unchanged (id order, load-bearing for conformance); the `BTreeMap`
//! original lives on as the reference model of `tests/table_props.rs`.

use crate::id::AoId;
use crate::message::DgcResponse;
use crate::units::Time;

/// What we know about one referenced active object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReferencedInfo {
    /// Last DGC response received from it, if any.
    pub last_response: Option<DgcResponse>,
    /// True while at least one local stub (the shared tag) is alive.
    pub reachable: bool,
    /// True if we still owe this target one DGC message (deserialization
    /// happened after the last message sent to it).
    pub must_send_once: bool,
    /// When this activity last passed the target's reference on to
    /// another activity, if it ever did.
    pub passed_on: Option<Time>,
}

/// Table of all referenced active objects: a flat arena sorted by id.
#[derive(Debug, Clone, Default)]
pub struct ReferencedTable {
    entries: Vec<(AoId, ReferencedInfo)>,
    /// Edges lost to stub collection whose farewell is not yet sent,
    /// with their last pass-on, in the order they left.
    leaving: Vec<(AoId, Option<Time>)>,
}

impl ReferencedTable {
    /// Empty table.
    pub fn new() -> Self {
        ReferencedTable::default()
    }

    #[inline]
    fn position(&self, id: AoId) -> Result<usize, usize> {
        crate::id::position_sorted(&self.entries, id)
    }

    /// Registers the deserialization of a stub for `target` (the §2.2
    /// hook). Creates the edge if needed, marks it reachable, and arms
    /// `must_send_once`. Returns `true` if the edge is new.
    pub fn on_stub_deserialized(&mut self, target: AoId) -> bool {
        let i = match self.position(target) {
            Ok(i) => i,
            Err(i) => {
                self.entries.insert(
                    i,
                    (
                        target,
                        ReferencedInfo {
                            last_response: None,
                            reachable: false,
                            must_send_once: false,
                            passed_on: None,
                        },
                    ),
                );
                i
            }
        };
        // dgc-analysis: allow(hot-path-panic): index is a binary-search Ok(i) into the same vec
        let entry = &mut self.entries[i].1;
        let was_new = !entry.reachable && entry.last_response.is_none() && !entry.must_send_once;
        entry.reachable = true;
        entry.must_send_once = true;
        // Held again before its farewell left: no farewell.
        self.leaving.retain(|&(id, _)| id != target);
        was_new
    }

    /// The local collector reports that **all** stubs for `target` died
    /// (the weak-referenced tag was collected). The edge survives only if
    /// a first DGC message is still owed. Returns `true` if the edge was
    /// removed now (a "loss of a referenced"); its target is then owed a
    /// farewell, as it is once the promised message has gone.
    pub fn on_stubs_collected(&mut self, target: AoId) -> bool {
        match self.position(target) {
            Err(_) => false,
            Ok(i) => {
                // dgc-analysis: allow(hot-path-panic): index is a binary-search Ok(i) into the same vec
                let info = &mut self.entries[i].1;
                info.reachable = false;
                if info.must_send_once {
                    // Keep the edge until the promised message is sent.
                    false
                } else {
                    let (_, info) = self.entries.remove(i);
                    self.leaving.push((target, info.passed_on));
                    true
                }
            }
        }
    }

    /// Records that this activity passed `target`'s reference on to
    /// another activity at `now`. Returns `false` if `target` is not
    /// tracked.
    pub fn passed_on(&mut self, target: AoId, now: Time) -> bool {
        match self.position(target) {
            Ok(i) => {
                // dgc-analysis: allow(hot-path-panic): index is a binary-search Ok(i) into the same vec
                self.entries[i].1.passed_on = Some(now);
                true
            }
            Err(_) => false,
        }
    }

    /// The lost edges owed a farewell, with their last pass-on, in the
    /// order they left; each is owed once.
    pub fn drain_leaving(&mut self) -> std::vec::Drain<'_, (AoId, Option<Time>)> {
        self.leaving.drain(..)
    }

    /// The activity leaves: every tracked edge goes, and each is owed a
    /// farewell after those already owed.
    pub fn leave_all(&mut self) {
        let edges = self
            .entries
            .drain(..)
            .map(|(id, info)| (id, info.passed_on));
        self.leaving.extend(edges);
    }

    /// Records a DGC response from `target`. Returns `false` if we no
    /// longer track that target (late response after edge removal).
    pub fn record_response(&mut self, target: AoId, response: DgcResponse) -> bool {
        match self.position(target) {
            Ok(i) => {
                // dgc-analysis: allow(hot-path-panic): index is a binary-search Ok(i) into the same vec
                self.entries[i].1.last_response = Some(response);
                true
            }
            Err(_) => false,
        }
    }

    /// Removes the edge to `target` unconditionally (send failure: the
    /// target terminated), farewell included. Returns `true` if the edge
    /// existed.
    pub fn remove(&mut self, target: AoId) -> bool {
        self.leaving.retain(|&(id, _)| id != target);
        match self.position(target) {
            Ok(i) => {
                self.entries.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// Ids to include in the next broadcast: all reachable targets plus
    /// any target still owed its first message. Clears `must_send_once`
    /// flags, and drops edges that were only kept for that promise —
    /// returning those drops as "losses of a referenced" (second element).
    pub fn broadcast_targets(&mut self) -> (Vec<AoId>, Vec<AoId>) {
        let mut targets = Vec::new();
        let mut dropped = Vec::new();
        self.broadcast_targets_into(&mut targets, &mut dropped);
        (targets, dropped)
    }

    /// [`Self::broadcast_targets`] into caller-owned scratch buffers
    /// (appended, id order) — one in-place pass, no allocation when the
    /// buffers' capacity is warm. This is the TTB-sweep hot path.
    pub fn broadcast_targets_into(&mut self, targets: &mut Vec<AoId>, dropped: &mut Vec<AoId>) {
        self.targets_into(false, targets, dropped);
    }

    /// [`Self::broadcast_targets_into`] restricted to the targets still
    /// owed their first message: the reachable edges that were already
    /// beaten are left out, with their flags and responses untouched.
    pub fn owed_targets_into(&mut self, targets: &mut Vec<AoId>, dropped: &mut Vec<AoId>) {
        self.targets_into(true, targets, dropped);
    }

    fn targets_into(&mut self, owed_only: bool, targets: &mut Vec<AoId>, dropped: &mut Vec<AoId>) {
        let leaving = &mut self.leaving;
        self.entries.retain_mut(|(id, info)| {
            if info.must_send_once || (info.reachable && !owed_only) {
                targets.push(*id);
                info.must_send_once = false;
                if !info.reachable {
                    // The promised message is being sent now; afterwards
                    // the edge is gone (stub already collected), and its
                    // farewell follows the message.
                    dropped.push(*id);
                    leaving.push((*id, info.passed_on));
                    return false;
                }
            }
            true
        });
    }

    /// True when some edge is owed its first message but is already
    /// unreachable — i.e. the next broadcast walk will drop it. The
    /// sweep uses this to choose between the fused single-pass walk
    /// (no drop possible) and the exact two-phase order that drop
    /// bookkeeping needs (drops bump the activity clock *before* the
    /// heartbeats carrying it are built).
    pub fn has_pending_drops(&self) -> bool {
        self.entries
            .iter()
            .any(|(_, info)| info.must_send_once && !info.reachable)
    }

    /// The fused broadcast walk: one in-place pass that invokes `emit`
    /// for every target due a heartbeat, handing it the edge's last
    /// recorded response (Algorithm 2's consensus-bit input) so the
    /// caller never re-searches the table per destination. Semantics
    /// match [`Self::broadcast_targets_into`] followed by a
    /// [`Self::last_response`] lookup per target: `must_send_once`
    /// flags clear, and edges kept only for that promise drop into
    /// `dropped`. This is the TTB-sweep hot path.
    pub fn for_each_broadcast_target(
        &mut self,
        dropped: &mut Vec<AoId>,
        mut emit: impl FnMut(AoId, Option<&DgcResponse>),
    ) {
        let leaving = &mut self.leaving;
        self.entries.retain_mut(|(id, info)| {
            if info.reachable || info.must_send_once {
                emit(*id, info.last_response.as_ref());
                info.must_send_once = false;
                if !info.reachable {
                    // The promised message is being sent now; afterwards
                    // the edge is gone (stub already collected), and its
                    // farewell follows the message.
                    dropped.push(*id);
                    leaving.push((*id, info.passed_on));
                    return false;
                }
            }
            true
        });
    }

    /// Last response from `target`, if tracked and received.
    pub fn last_response(&self, target: AoId) -> Option<&DgcResponse> {
        self.position(target)
            .ok()
            // dgc-analysis: allow(hot-path-panic): index is a binary-search Ok(i) into the same vec
            .and_then(|i| self.entries[i].1.last_response.as_ref())
    }

    /// Look up one edge.
    pub fn get(&self, target: AoId) -> Option<&ReferencedInfo> {
        // dgc-analysis: allow(hot-path-panic): index is a binary-search Ok(i) into the same vec
        self.position(target).ok().map(|i| &self.entries[i].1)
    }

    /// True if `target` is currently tracked.
    pub fn contains(&self, target: AoId) -> bool {
        self.position(target).is_ok()
    }

    /// Number of tracked edges.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no edge is tracked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(id, info)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (AoId, &ReferencedInfo)> {
        self.entries.iter().map(|(k, v)| (*k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::NamedClock;

    fn ao(n: u32) -> AoId {
        AoId::new(n, 0)
    }

    fn resp(n: u32) -> DgcResponse {
        DgcResponse {
            responder: ao(n),
            clock: NamedClock::initial(ao(n)),
            has_parent: false,
            consensus_reached: false,
            depth: None,
        }
    }

    #[test]
    fn deserialization_creates_edge_and_arms_must_send() {
        let mut t = ReferencedTable::new();
        assert!(t.on_stub_deserialized(ao(1)));
        assert!(
            !t.on_stub_deserialized(ao(1)),
            "second stub is not a new edge"
        );
        let info = t.get(ao(1)).unwrap();
        assert!(info.reachable);
        assert!(info.must_send_once);
    }

    #[test]
    fn broadcast_clears_must_send_and_keeps_reachable_edges() {
        let mut t = ReferencedTable::new();
        t.on_stub_deserialized(ao(1));
        let (targets, dropped) = t.broadcast_targets();
        assert_eq!(targets, vec![ao(1)]);
        assert!(dropped.is_empty());
        assert!(!t.get(ao(1)).unwrap().must_send_once);
        // Still broadcast next time: the stub is alive.
        let (targets, _) = t.broadcast_targets();
        assert_eq!(targets, vec![ao(1)]);
    }

    #[test]
    fn quickly_collected_stub_still_gets_one_message() {
        // §3.1: reference passed through and collected before the first
        // broadcast — one DGC message must still go out.
        let mut t = ReferencedTable::new();
        t.on_stub_deserialized(ao(1));
        assert!(
            !t.on_stubs_collected(ao(1)),
            "edge kept for the promised message"
        );
        let (targets, dropped) = t.broadcast_targets();
        assert_eq!(targets, vec![ao(1)]);
        assert_eq!(
            dropped,
            vec![ao(1)],
            "edge dropped after the promise is honoured"
        );
        assert!(!t.contains(ao(1)));
        let (targets, _) = t.broadcast_targets();
        assert!(targets.is_empty());
    }

    #[test]
    fn broadcast_targets_into_appends_to_scratch() {
        let mut t = ReferencedTable::new();
        t.on_stub_deserialized(ao(2));
        t.on_stub_deserialized(ao(1));
        t.on_stubs_collected(ao(2)); // kept for the promise, dropped below
        let mut targets = vec![ao(7)];
        let mut dropped = Vec::new();
        t.broadcast_targets_into(&mut targets, &mut dropped);
        assert_eq!(targets, vec![ao(7), ao(1), ao(2)]);
        assert_eq!(dropped, vec![ao(2)]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn owed_walk_leaves_beaten_edges_alone() {
        let mut t = ReferencedTable::new();
        t.on_stub_deserialized(ao(1));
        t.broadcast_targets();
        t.on_stub_deserialized(ao(3));
        t.on_stub_deserialized(ao(2));
        t.on_stubs_collected(ao(2)); // owed, then unreachable
        let (mut targets, mut dropped) = (Vec::new(), Vec::new());
        t.owed_targets_into(&mut targets, &mut dropped);
        assert_eq!((targets, dropped), (vec![ao(2), ao(3)], vec![ao(2)]));
        let ids: Vec<AoId> = t.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![ao(1), ao(3)]);
        assert!(t.iter().all(|(_, info)| !info.must_send_once));
        let (mut targets, mut dropped) = (Vec::new(), Vec::new());
        t.owed_targets_into(&mut targets, &mut dropped);
        assert!(
            targets.is_empty() && dropped.is_empty(),
            "nothing owed twice"
        );
    }

    #[test]
    fn fused_walk_matches_two_phase_walk_and_lookups() {
        let mut two_phase = ReferencedTable::new();
        two_phase.on_stub_deserialized(ao(3));
        two_phase.on_stub_deserialized(ao(1));
        two_phase.on_stub_deserialized(ao(2));
        two_phase.record_response(ao(1), resp(1));
        two_phase.on_stubs_collected(ao(2)); // kept for the promise only
        let mut fused = two_phase.clone();

        assert!(two_phase.has_pending_drops(), "ao2 is owed its drop");
        let pre_walk = two_phase.clone();
        let (targets, two_phase_dropped) = two_phase.broadcast_targets();
        let expected: Vec<(AoId, Option<DgcResponse>)> = targets
            .into_iter()
            .map(|t| (t, pre_walk.last_response(t).cloned()))
            .collect();

        let mut walked = Vec::new();
        let mut dropped = Vec::new();
        fused.for_each_broadcast_target(&mut dropped, |id, last| {
            walked.push((id, last.cloned()));
        });
        assert_eq!(walked, expected);
        assert_eq!(dropped, two_phase_dropped);
        assert_eq!(dropped, vec![ao(2)]);
        let (after, _) = two_phase.broadcast_targets();
        let mut fused_after = Vec::new();
        fused.for_each_broadcast_target(&mut Vec::new(), |id, _| fused_after.push(id));
        assert_eq!(fused_after, after, "both walks leave the same table");
        assert!(!fused.has_pending_drops());
    }

    #[test]
    fn stub_collection_after_broadcast_removes_edge() {
        let mut t = ReferencedTable::new();
        t.on_stub_deserialized(ao(1));
        t.broadcast_targets();
        assert!(t.on_stubs_collected(ao(1)), "loss of a referenced");
        assert!(t.is_empty());
    }

    #[test]
    fn re_deserialization_revives_edge() {
        let mut t = ReferencedTable::new();
        t.on_stub_deserialized(ao(1));
        t.broadcast_targets();
        t.on_stubs_collected(ao(1));
        assert!(t.on_stub_deserialized(ao(1)), "revived edge counts as new");
        assert!(t.get(ao(1)).unwrap().reachable);
    }

    #[test]
    fn a_lost_edge_owes_one_farewell_with_its_last_pass_on() {
        let mut t = ReferencedTable::new();
        let passed = Time::from_secs(3);
        for target in [1, 2, 3] {
            t.on_stub_deserialized(ao(target));
        }
        t.broadcast_targets();
        assert!(t.passed_on(ao(1), passed));
        assert!(!t.passed_on(ao(9), passed), "untracked");
        assert!(t.on_stubs_collected(ao(1)));
        assert!(t.on_stubs_collected(ao(2)));
        // Held again before its farewell left: no farewell.
        t.on_stub_deserialized(ao(2));
        // A send failure: the target is gone, nobody to tell.
        t.remove(ao(3));
        let owed: Vec<_> = t.drain_leaving().collect();
        assert_eq!(owed, vec![(ao(1), Some(passed))]);
        assert_eq!(t.drain_leaving().count(), 0, "owed once");
        t.leave_all();
        assert!(t.is_empty());
        let owed: Vec<_> = t.drain_leaving().collect();
        assert_eq!(owed, vec![(ao(2), None)]);
    }

    #[test]
    fn responses_recorded_only_for_tracked_targets() {
        let mut t = ReferencedTable::new();
        assert!(!t.record_response(ao(1), resp(1)), "untracked target");
        t.on_stub_deserialized(ao(1));
        assert!(t.record_response(ao(1), resp(1)));
        assert_eq!(t.last_response(ao(1)).unwrap().responder, ao(1));
    }

    #[test]
    fn remove_on_send_failure() {
        let mut t = ReferencedTable::new();
        t.on_stub_deserialized(ao(1));
        assert!(t.remove(ao(1)));
        assert!(!t.remove(ao(1)));
    }

    #[test]
    fn iteration_is_id_ordered() {
        let mut t = ReferencedTable::new();
        t.on_stub_deserialized(ao(2));
        t.on_stub_deserialized(ao(1));
        let ids: Vec<AoId> = t.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![ao(1), ao(2)]);
    }
}
