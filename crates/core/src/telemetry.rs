//! Cached telemetry handles for the protocol engine.
//!
//! [`DgcObs`] is the bundle of `dgc-obs` counters and histograms one
//! [`crate::protocol::DgcState`] records into when a registry is
//! attached ([`crate::protocol::DgcState::set_obs`]). The handles are
//! resolved once at attach time, so the hot path pays one relaxed
//! atomic op per event and exactly nothing when detached. They count
//! per *node*; [`crate::stats::DgcStats`] is the per-*endpoint* tally
//! each state keeps for its own reporting — a different granularity,
//! not a second copy.
//!
//! Metric names (under the owning node's registry):
//!
//! | name | kind | meaning |
//! |---|---|---|
//! | `dgc.clock_bumps.became_idle` … | counter | §3.2 clock bumps by reason |
//! | `dgc.consensus.detected` / `.propagated` | counter | cycle consensus events |
//! | `dgc.collected.acyclic` / `.cyclic` | counter | terminations by path |
//! | `dgc.collect.spawn_to_collected_ns` | histogram | whole-life latency |
//! | `dgc.collect.idle_to_collected_ns` | histogram | last busy→idle → collected |
//! | `dgc.collect.idle_to_consensus_ns` | histogram | last busy→idle → consensus |
//! | `dgc.collect.consensus_to_collected_ns` | histogram | dying wait (§4.3): until every referencer was told, TTA at most |
//! | `dgc.dying.ended_told` / `.ended_capped` | counter | dying waits ended by the last referencer told / by the TTA cap |
//! | `dgc.farewell.sent` | counter | farewells sent: one per target a leaving endpoint or a dropped edge held |
//! | `dgc.farewell.dropped` | counter | farewells that reached no referencer entry: the target is gone (counted by the host), or does not list the sender |
//! | `dgc.referencer.ended_farewell` / `.ended_silent` | counter | referencers forgotten at their farewell horizon / after silence (TTA, or their own expiry) |
//! | `dgc.ttb_round_ns` | histogram | spacing of Algorithm-2 beats |

use dgc_obs::{Counter, Histogram, Registry};

use crate::stats::ClockBumpReason;

/// Lock-free handles a [`crate::protocol::DgcState`] records into.
#[derive(Debug, Clone)]
pub struct DgcObs {
    /// Clock bumps: busy→idle transitions.
    pub bumps_became_idle: Counter,
    /// Clock bumps: referencer lost (TTA silence / node death).
    pub bumps_lost_referencer: Counter,
    /// Clock bumps: referenced edge lost (stubs collected / send failure).
    pub bumps_lost_referenced: Counter,
    /// Consensus detections (this endpoint originated).
    pub consensus_detected: Counter,
    /// Dying entries via a propagated consensus bit.
    pub consensus_propagated: Counter,
    /// Terminations on the acyclic (silence) path.
    pub collected_acyclic: Counter,
    /// Terminations on the cyclic (consensus) path.
    pub collected_cyclic: Counter,
    /// Creation → collected, nanoseconds.
    pub spawn_to_collected: Histogram,
    /// Last busy→idle transition → collected, nanoseconds.
    pub idle_to_collected: Histogram,
    /// Last busy→idle transition → consensus detection, nanoseconds.
    pub idle_to_consensus: Histogram,
    /// Consensus (Dying entry) → collected: the §4.3 dying wait, which
    /// ends when every referencer has been told, TTA at the latest.
    pub consensus_to_collected: Histogram,
    /// Dying waits that ended because the last referencer owed an
    /// answer was answered.
    pub dying_ended_told: Counter,
    /// Dying waits that ended at the TTA cap: some referencer never
    /// beat again (it learned the outcome elsewhere, or went silent).
    pub dying_ended_capped: Counter,
    /// Farewells sent.
    pub farewell_sent: Counter,
    /// Farewells that reached no referencer entry.
    pub farewell_dropped: Counter,
    /// Referencers forgotten at their farewell horizon.
    pub referencer_ended_farewell: Counter,
    /// Referencers forgotten after silence.
    pub referencer_ended_silent: Counter,
    /// Observed spacing between consecutive Algorithm-2 beats.
    pub ttb_round: Histogram,
}

impl DgcObs {
    /// Resolves the engine's handles against `registry`.
    pub fn new(registry: &Registry) -> DgcObs {
        DgcObs {
            bumps_became_idle: registry.counter("dgc.clock_bumps.became_idle"),
            bumps_lost_referencer: registry.counter("dgc.clock_bumps.lost_referencer"),
            bumps_lost_referenced: registry.counter("dgc.clock_bumps.lost_referenced"),
            consensus_detected: registry.counter("dgc.consensus.detected"),
            consensus_propagated: registry.counter("dgc.consensus.propagated"),
            collected_acyclic: registry.counter("dgc.collected.acyclic"),
            collected_cyclic: registry.counter("dgc.collected.cyclic"),
            spawn_to_collected: registry.histogram("dgc.collect.spawn_to_collected_ns"),
            idle_to_collected: registry.histogram("dgc.collect.idle_to_collected_ns"),
            idle_to_consensus: registry.histogram("dgc.collect.idle_to_consensus_ns"),
            consensus_to_collected: registry.histogram("dgc.collect.consensus_to_collected_ns"),
            dying_ended_told: registry.counter("dgc.dying.ended_told"),
            dying_ended_capped: registry.counter("dgc.dying.ended_capped"),
            farewell_sent: registry.counter("dgc.farewell.sent"),
            farewell_dropped: registry.counter("dgc.farewell.dropped"),
            referencer_ended_farewell: registry.counter("dgc.referencer.ended_farewell"),
            referencer_ended_silent: registry.counter("dgc.referencer.ended_silent"),
            ttb_round: registry.histogram("dgc.ttb_round_ns"),
        }
    }

    /// The bump counter for `reason`.
    pub fn bump_counter(&self, reason: ClockBumpReason) -> &Counter {
        match reason {
            ClockBumpReason::BecameIdle => &self.bumps_became_idle,
            ClockBumpReason::LostReferencer => &self.bumps_lost_referencer,
            ClockBumpReason::LostReferenced => &self.bumps_lost_referenced,
        }
    }
}
