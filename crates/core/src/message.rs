//! DGC protocol messages (§3.2 "DGC Messages and Responses").
//!
//! DGC **messages** flow from referencers to referenced active objects —
//! the same direction the application can already communicate in, so the
//! collector needs no extra connectivity (firewalls/NATs). DGC
//! **responses** travel back on the same FIFO connection.

use crate::clock::NamedClock;
use crate::id::AoId;
use crate::units::Dur;

/// A DGC message, broadcast every TTB from a referencer to each of its
/// referenced active objects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DgcMessage {
    /// Sender id — lets the receiver discover new referencers and know
    /// which earlier DGC response the `consensus` bit refers to.
    pub sender: AoId,
    /// The sender's view of the final activity clock, propagated through
    /// the reference graph.
    pub clock: NamedClock,
    /// Acceptance of the consensus candidate received in the previous DGC
    /// response from this destination. Toward the sender's *parent* this
    /// is the conjunction of the sender's own agreement and that of all
    /// its referencers; toward anyone else it is only the sender's local
    /// agreement.
    pub consensus: bool,
    /// The sender's current TTB. The paper's §7.1 extension: advertising
    /// per-object heartbeat periods lets receivers compute a safe
    /// per-referencer expiry (`2·TTB + MaxComm`) instead of assuming a
    /// global constant.
    pub sender_ttb: Dur,
}

/// A DGC response, returned for every received DGC message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DgcResponse {
    /// Responder id (the referenced active object).
    pub responder: AoId,
    /// The consensus candidate: the responder's final activity clock.
    /// Never used to update the receiver's own clock (Fig. 4 — otherwise
    /// a downstream cycle would keep an upstream one alive), only to
    /// build the consensus.
    pub clock: NamedClock,
    /// True if the responder can serve as a parent in the reverse
    /// spanning tree, i.e. it has a parent itself or is the originator.
    /// Guarantees every adopted parent leads to the originator.
    pub has_parent: bool,
    /// §4.3 optimization: set once the responder has detected (or been
    /// told of) a completed consensus, so the whole cycle learns it is
    /// dead in one traversal instead of re-running consensus per
    /// sub-cycle.
    pub consensus_reached: bool,
    /// Responder's depth in the reverse spanning tree (0 for the
    /// originator). Only present when the breadth-first parent policy of
    /// §7.2 is enabled; referencers then prefer shallow parents.
    pub depth: Option<u32>,
}

/// A farewell, sent once by a referencer that stops referencing the
/// receiver — it terminated, or its local collector dropped its last stub
/// for the receiver. The receiver forgets the sender at
/// `receipt + max(0, 2·MaxComm + TTB − age)` instead of TTA after its
/// last message: every copy of the reference the sender passed on landed
/// within MaxComm, and the new holder's first message within another —
/// or, if that one is lost, its next beat within a TTB more (see
/// DESIGN.md, "Farewells").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DgcFarewell {
    /// The departing referencer.
    pub sender: AoId,
    /// Time since the sender last passed the receiver's reference on to
    /// another activity, as the farewell left; `None` if it never did.
    pub age: Option<Dur>,
}

/// Why an active object decided to terminate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum TerminateReason {
    /// No DGC message received for TTA: no referencer remains (§3.1).
    Acyclic,
    /// This object owns the final activity clock and its whole recursive
    /// referencer closure agreed on it (§3.2): it detected the garbage
    /// cycle itself.
    CyclicDetected,
    /// A referenced object reported `consensus_reached`; this object was
    /// part of the agreed cycle and terminates without re-running
    /// consensus (§4.3 step 4).
    CyclicPropagated,
}

impl TerminateReason {
    /// True for either cyclic variant.
    pub fn is_cyclic(self) -> bool {
        matches!(
            self,
            TerminateReason::CyclicDetected | TerminateReason::CyclicPropagated
        )
    }
}

/// Everything a [`crate::protocol::DgcState`] can ask its runtime to do.
///
/// The protocol core is sans-io: handlers mutate local state and return
/// actions; the runtime performs the sends and destroys terminated
/// objects.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Action {
    /// Send a DGC message to a referenced active object.
    SendMessage {
        /// Destination (a referenced active object).
        to: AoId,
        /// The message.
        message: DgcMessage,
    },
    /// Send a DGC response back to a referencer.
    SendResponse {
        /// Destination (the referencer whose message we are answering).
        to: AoId,
        /// The response.
        response: DgcResponse,
    },
    /// Tell a referenced active object that this one no longer
    /// references it. Never answered.
    SendFarewell {
        /// Destination (the target the sender held).
        to: AoId,
        /// The farewell.
        farewell: DgcFarewell,
    },
    /// Destroy this active object; it is garbage.
    Terminate {
        /// Which path of the collector fired.
        reason: TerminateReason,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ao(n: u32) -> AoId {
        AoId::new(n, 0)
    }

    #[test]
    fn terminate_reason_classification() {
        assert!(!TerminateReason::Acyclic.is_cyclic());
        assert!(TerminateReason::CyclicDetected.is_cyclic());
        assert!(TerminateReason::CyclicPropagated.is_cyclic());
    }

    #[test]
    fn message_is_plain_data() {
        let m = DgcMessage {
            sender: ao(1),
            clock: NamedClock::initial(ao(1)),
            consensus: true,
            sender_ttb: Dur::from_secs(30),
        };
        let copy = m;
        assert_eq!(m, copy);
    }

    #[test]
    fn response_is_plain_data() {
        let r = DgcResponse {
            responder: ao(2),
            clock: NamedClock::initial(ao(2)),
            has_parent: false,
            consensus_reached: false,
            depth: Some(3),
        };
        assert_eq!(r, r.clone());
        assert_eq!(r.depth, Some(3));
    }
}
