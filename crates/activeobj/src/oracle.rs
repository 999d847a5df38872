//! Ground-truth liveness oracle.
//!
//! The simulator knows the whole system state, so it can evaluate the
//! paper's Garbage property (equation (1)) directly:
//!
//! ```text
//! Garbage(x) ⇔ ∀y, y →* x ⇒ Idle(y)
//! ```
//!
//! equivalently: `x` is **live** iff some root or busy activity reaches
//! `x` through reference edges. The oracle computes the live set by
//! forward reachability from roots, busy activities and in-flight
//! application messages (a request in flight *will* make its receiver
//! busy; references inside in-flight payloads become edges of the
//! receiver). Tests use it two ways:
//!
//! * **safety** — at every termination, the terminated activity must not
//!   be in the live set;
//! * **liveness** — after the system quiesces and enough simulated time
//!   passes (`O(h·TTB) + 2·TTA`), no garbage activity may remain alive.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use dgc_core::id::AoId;
use dgc_core::message::TerminateReason;
use dgc_simnet::time::SimTime;

/// An application message still travelling through the network.
#[derive(Debug, Clone)]
pub struct InflightMessage {
    /// Receiver.
    pub to: AoId,
    /// True for requests (which activate the receiver on arrival), false
    /// for replies (which cannot wake an idle activity, §4.1).
    pub is_request: bool,
    /// Remote references carried in the payload.
    pub refs: Vec<AoId>,
}

/// A full-system snapshot for the oracle.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Registered activities, dummy referencers, and activities a
    /// pending timer will call: live whatever they do.
    pub roots: Vec<AoId>,
    /// Activities currently busy (serving, queued work, or waiting on a
    /// future).
    pub busy: Vec<AoId>,
    /// Reference edges: holder → target, one per held stub tag.
    pub edges: Vec<(AoId, AoId)>,
    /// Application messages in flight.
    pub inflight: Vec<InflightMessage>,
}

/// A safety violation: a live activity was terminated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SafetyViolation {
    /// When it happened.
    pub at: SimTime,
    /// The wrongfully terminated activity.
    pub ao: AoId,
    /// The reason the collector gave.
    pub reason: TerminateReason,
}

/// Computes the set of live activities in a snapshot.
pub fn live_set(snapshot: &Snapshot) -> BTreeSet<AoId> {
    let mut adj: BTreeMap<AoId, Vec<AoId>> = BTreeMap::new();
    for (from, to) in &snapshot.edges {
        adj.entry(*from).or_default().push(*to);
    }

    let mut live: BTreeSet<AoId> = BTreeSet::new();
    let mut frontier: VecDeque<AoId> = VecDeque::new();
    let push = |id: AoId, live: &mut BTreeSet<AoId>, frontier: &mut VecDeque<AoId>| {
        if live.insert(id) {
            frontier.push_back(id);
        }
    };

    for r in &snapshot.roots {
        push(*r, &mut live, &mut frontier);
    }
    for b in &snapshot.busy {
        push(*b, &mut live, &mut frontier);
    }
    for m in &snapshot.inflight {
        if m.is_request {
            // The request will activate its receiver: the receiver and
            // everything the payload references are live.
            push(m.to, &mut live, &mut frontier);
            for r in &m.refs {
                push(*r, &mut live, &mut frontier);
            }
        }
        // A reply's references become edges of the receiver: live only
        // if the receiver is.
    }

    // Replies: receiver → refs edges.
    let mut reply_edges: BTreeMap<AoId, Vec<AoId>> = BTreeMap::new();
    for m in &snapshot.inflight {
        if !m.is_request {
            reply_edges
                .entry(m.to)
                .or_default()
                .extend(m.refs.iter().copied());
        }
    }

    while let Some(id) = frontier.pop_front() {
        if let Some(nexts) = adj.get(&id) {
            for n in nexts {
                if live.insert(*n) {
                    frontier.push_back(*n);
                }
            }
        }
        if let Some(nexts) = reply_edges.get(&id) {
            for n in nexts.clone() {
                if live.insert(n) {
                    frontier.push_back(n);
                }
            }
        }
    }
    live
}

/// Activities in `alive` that the oracle deems garbage (not live).
pub fn garbage_set(snapshot: &Snapshot, alive: &BTreeSet<AoId>) -> BTreeSet<AoId> {
    let live = live_set(snapshot);
    alive
        .iter()
        .filter(|id| !live.contains(id))
        .copied()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ao(n: u32) -> AoId {
        AoId::new(n, 0)
    }

    #[test]
    fn roots_and_busy_are_live() {
        let s = Snapshot {
            roots: vec![ao(1)],
            busy: vec![ao(2)],
            edges: vec![],
            inflight: vec![],
        };
        let live = live_set(&s);
        assert!(live.contains(&ao(1)));
        assert!(live.contains(&ao(2)));
        assert!(!live.contains(&ao(3)));
    }

    #[test]
    fn liveness_follows_reference_edges() {
        // root -> a -> b, and isolated c.
        let s = Snapshot {
            roots: vec![ao(0)],
            busy: vec![],
            edges: vec![(ao(0), ao(1)), (ao(1), ao(2)), (ao(3), ao(4))],
            inflight: vec![],
        };
        let live = live_set(&s);
        assert!(live.contains(&ao(1)));
        assert!(live.contains(&ao(2)));
        assert!(!live.contains(&ao(3)), "no busy/root reaches c");
        assert!(!live.contains(&ao(4)));
    }

    #[test]
    fn idle_cycle_is_garbage_even_if_it_references_live_objects() {
        // Fig. 4 orientation: the cycle {1,2} references busy 3; edges
        // point *from* the cycle, so the cycle stays garbage.
        let s = Snapshot {
            roots: vec![],
            busy: vec![ao(3)],
            edges: vec![(ao(1), ao(2)), (ao(2), ao(1)), (ao(2), ao(3))],
            inflight: vec![],
        };
        let live = live_set(&s);
        assert!(!live.contains(&ao(1)));
        assert!(!live.contains(&ao(2)));
        assert!(live.contains(&ao(3)));
    }

    #[test]
    fn busy_referencer_keeps_cycle_live() {
        let s = Snapshot {
            roots: vec![],
            busy: vec![ao(3)],
            edges: vec![(ao(3), ao(1)), (ao(1), ao(2)), (ao(2), ao(1))],
            inflight: vec![],
        };
        let live = live_set(&s);
        assert!(live.contains(&ao(1)));
        assert!(live.contains(&ao(2)));
    }

    #[test]
    fn inflight_request_keeps_receiver_and_refs_live() {
        let s = Snapshot {
            roots: vec![],
            busy: vec![],
            edges: vec![(ao(1), ao(2))],
            inflight: vec![InflightMessage {
                to: ao(1),
                is_request: true,
                refs: vec![ao(5)],
            }],
        };
        let live = live_set(&s);
        assert!(live.contains(&ao(1)), "request will activate it");
        assert!(live.contains(&ao(2)), "reached from the activated receiver");
        assert!(live.contains(&ao(5)), "carried reference");
    }

    #[test]
    fn inflight_reply_refs_live_only_if_receiver_is() {
        // Reply to idle garbage receiver: refs stay garbage.
        let s = Snapshot {
            roots: vec![],
            busy: vec![],
            edges: vec![],
            inflight: vec![InflightMessage {
                to: ao(1),
                is_request: false,
                refs: vec![ao(5)],
            }],
        };
        assert!(live_set(&s).is_empty());
        // Reply to a busy receiver: refs live.
        let s2 = Snapshot {
            roots: vec![],
            busy: vec![ao(1)],
            edges: vec![],
            inflight: vec![InflightMessage {
                to: ao(1),
                is_request: false,
                refs: vec![ao(5)],
            }],
        };
        let live = live_set(&s2);
        assert!(live.contains(&ao(5)));
    }

    #[test]
    fn garbage_set_is_alive_minus_live() {
        let s = Snapshot {
            roots: vec![ao(0)],
            busy: vec![],
            edges: vec![(ao(0), ao(1))],
            inflight: vec![],
        };
        let alive: BTreeSet<AoId> = [ao(0), ao(1), ao(2), ao(3)].into_iter().collect();
        let garbage = garbage_set(&s, &alive);
        assert_eq!(garbage, [ao(2), ao(3)].into_iter().collect());
    }
}
