//! In-memory protocol harness.
//!
//! Hosts a [`NodeKernel`] over a loss-less, fixed-latency, FIFO
//! in-memory network with manually advanced time — the same kernel the
//! socket and thread runtimes drive, with a queue for a transport. This
//! is *not* the full middleware (no request queues, no futures, no
//! local GC) — it exists so that protocol-level behaviours (the figures
//! of the paper, liveness bounds, races) can be tested precisely and
//! quickly, both here and in the property-based suites.
//!
//! The harness owns idleness: tests declare objects idle or busy, create
//! and drop reference edges, and step simulated time; the kernel ticks
//! every endpoint at its own TTB phase, the harness ships the messages
//! and responses it emits after `latency` and records terminations.
//! Calls naming an endpoint that was never added or has terminated are
//! no-ops, as in the runtimes.

use std::collections::VecDeque;

use crate::config::DgcConfig;
use crate::id::AoId;
use crate::kernel::NodeKernel;
use crate::message::{Action, DgcMessage, DgcResponse, TerminateReason};
use crate::sweep::SweepPools;
use crate::units::{Dur, Time};

/// A recorded termination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Termination {
    /// Who terminated.
    pub id: AoId,
    /// Why.
    pub reason: TerminateReason,
    /// When.
    pub at: Time,
}

enum Wire {
    Message {
        from: AoId,
        to: AoId,
        message: DgcMessage,
    },
    Response {
        from: AoId,
        to: AoId,
        response: DgcResponse,
    },
}

/// Deterministic multi-endpoint protocol driver.
pub struct Harness {
    now: Time,
    latency: Dur,
    kernel: NodeKernel,
    in_flight: VecDeque<(Time, Wire)>,
    terminations: Vec<Termination>,
    next_node: u32,
}

impl Harness {
    /// Creates a harness whose links all have the given one-way latency.
    pub fn new(latency: Dur) -> Self {
        Harness {
            now: Time::ZERO,
            latency,
            kernel: NodeKernel::new(1),
            in_flight: VecDeque::new(),
            terminations: Vec::new(),
            next_node: 0,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Adds an endpoint with `config`, initially **busy** (tests flip it
    /// idle explicitly so the busy→idle bump is exercised like in the
    /// real middleware). Returns its id.
    pub fn add(&mut self, config: DgcConfig) -> AoId {
        let id = AoId::new(self.next_node, 0);
        self.next_node += 1;
        self.kernel.spawn(id, self.now, config, None);
        id
    }

    /// Adds `n` endpoints with the same config.
    pub fn add_many(&mut self, n: usize, config: DgcConfig) -> Vec<AoId> {
        (0..n).map(|_| self.add(config)).collect()
    }

    /// Declares `id` idle or busy; a busy→idle transition bumps the
    /// activity clock exactly as the middleware would.
    pub fn set_idle(&mut self, id: AoId, idle: bool) {
        self.kernel.set_idle(self.now, id, idle);
    }

    /// Creates the reference edge `from → to` (stub deserialization).
    pub fn add_ref(&mut self, from: AoId, to: AoId) {
        self.kernel.add_ref(self.now, from, to);
    }

    /// Removes the reference edge `from → to` (all stubs collected).
    pub fn drop_ref(&mut self, from: AoId, to: AoId) {
        self.kernel.drop_ref(from, to);
    }

    /// True if `id` is still alive (added and not terminated).
    pub fn alive(&self, id: AoId) -> bool {
        self.kernel.hosts(id)
    }

    /// Number of endpoints still alive.
    pub fn alive_count(&self) -> usize {
        self.kernel.hosted()
    }

    /// All recorded terminations, in order.
    pub fn terminations(&self) -> &[Termination] {
        &self.terminations
    }

    /// Advances simulated time to `deadline`, processing deliveries and
    /// ticks in timestamp order (FIFO per sender thanks to queue order).
    pub fn run_until(&mut self, deadline: Time) {
        loop {
            // Earliest pending delivery or tick.
            let next_delivery = self.in_flight.front().map(|(t, _)| *t);
            let next = match (next_delivery, self.kernel.next_tick()) {
                (None, None) => break,
                (Some(d), None) => d,
                (None, Some(t)) => t,
                (Some(d), Some(t)) => d.min(t),
            };
            if next > deadline {
                break;
            }
            self.now = next;
            if next_delivery == Some(next) {
                let (_, wire) = self.in_flight.pop_front().expect("non-empty");
                self.deliver(wire);
            } else {
                let out = self.kernel.tick_due(next);
                self.emit_all(out);
            }
        }
        self.now = self.now.max(deadline);
    }

    /// Advances time by `d`.
    pub fn run_for(&mut self, d: Dur) {
        self.run_until(self.now + d);
    }

    fn deliver(&mut self, wire: Wire) {
        match wire {
            Wire::Message { from, to, message } => {
                match self.kernel.on_message(self.now, to, &message) {
                    Some(out) => self.emit_all(out),
                    // Target terminated: sender observes a failure.
                    None => self.kernel.on_send_failure(from, to),
                }
            }
            Wire::Response { from, to, response } => {
                for action in self.kernel.on_response(self.now, from, to, &response) {
                    self.emit(to, action);
                }
            }
        }
    }

    fn emit_all(&mut self, mut out: SweepPools) {
        for unit in out.drain_units() {
            self.emit(unit.from, unit.action);
        }
        self.kernel.recycle(out);
    }

    /// Puts what `who` emitted on the wire, or in the termination log.
    fn emit(&mut self, who: AoId, action: Action) {
        let wire = match action {
            Action::SendMessage { to, message } => Wire::Message {
                from: who,
                to,
                message,
            },
            Action::SendResponse { to, response } => Wire::Response {
                from: who,
                to,
                response,
            },
            Action::Terminate { reason } => {
                return self.terminations.push(Termination {
                    id: who,
                    reason,
                    at: self.now,
                });
            }
        };
        // `now` never goes back and the latency is constant, so pushing
        // at the back keeps the queue in delivery order.
        let at = self.now + self.latency;
        debug_assert!(self.in_flight.back().is_none_or(|(t, _)| *t <= at));
        self.in_flight.push_back((at, wire));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DgcConfig {
        DgcConfig::builder()
            .ttb(Dur::from_secs(30))
            .tta(Dur::from_secs(61))
            .max_comm(Dur::from_millis(500))
            .build()
    }

    fn lat() -> Dur {
        Dur::from_millis(10)
    }

    #[test]
    fn lone_idle_object_dies_acyclically() {
        let mut h = Harness::new(lat());
        let a = h.add(cfg());
        h.set_idle(a, true);
        h.run_for(Dur::from_secs(200));
        assert!(!h.alive(a));
        assert_eq!(h.terminations().len(), 1);
        assert_eq!(h.terminations()[0].reason, TerminateReason::Acyclic);
    }

    #[test]
    fn heartbeats_keep_referenced_object_alive() {
        let mut h = Harness::new(lat());
        let a = h.add(cfg()); // busy root
        let b = h.add(cfg());
        h.add_ref(a, b);
        h.set_idle(b, true);
        h.run_for(Dur::from_secs(400));
        assert!(h.alive(b), "b hears from a every TTB");
        assert!(h.alive(a), "a is busy");
    }

    #[test]
    fn dropping_the_last_reference_collects_the_target() {
        let mut h = Harness::new(lat());
        let a = h.add(cfg());
        let b = h.add(cfg());
        h.add_ref(a, b);
        h.set_idle(b, true);
        h.run_for(Dur::from_secs(100));
        assert!(h.alive(b));
        h.drop_ref(a, b);
        h.run_for(Dur::from_secs(200));
        assert!(!h.alive(b), "silence for TTA collects b");
        assert!(h.alive(a));
    }

    #[test]
    fn two_cycle_is_collected() {
        let mut h = Harness::new(lat());
        let a = h.add(cfg());
        let b = h.add(cfg());
        h.add_ref(a, b);
        h.add_ref(b, a);
        h.set_idle(a, true);
        h.set_idle(b, true);
        h.run_for(Dur::from_secs(600));
        assert!(!h.alive(a) && !h.alive(b), "idle 2-cycle is garbage");
        assert!(h.terminations().iter().any(|t| t.reason.is_cyclic()));
    }

    #[test]
    fn cycle_with_busy_member_survives() {
        let mut h = Harness::new(lat());
        let a = h.add(cfg());
        let b = h.add(cfg());
        let c = h.add(cfg());
        h.add_ref(a, b);
        h.add_ref(b, c);
        h.add_ref(c, a);
        h.set_idle(a, true);
        h.set_idle(b, true);
        // c stays busy.
        h.run_for(Dur::from_secs(1000));
        assert!(h.alive(a) && h.alive(b) && h.alive(c));
    }

    /// A ring whose members are idle from the moment they are wired:
    /// each new edge beats on the turn that created it, and the last
    /// member learns the consensus from a response 2 ms after a tick (a
    /// 1 ms hop each way) and goes exactly TTA after that response — not
    /// on the first cadence tick after it — so it goes exactly this long
    /// after creation.
    #[test]
    fn rings_idled_at_creation_end_on_the_early_beat_schedule() {
        let config = DgcConfig::builder()
            .ttb(Dur::from_millis(100))
            .tta(Dur::from_millis(500))
            .max_comm(Dur::from_millis(200))
            .build();
        for (n, lifetime_ms) in [(2, 802), (4, 1_502)] {
            let mut h = Harness::new(Dur::from_millis(1));
            let created = h.now();
            let ids = h.add_many(n, config);
            for w in 0..n {
                h.add_ref(ids[w], ids[(w + 1) % n]);
            }
            for id in &ids {
                h.set_idle(*id, true);
            }
            h.run_for(Dur::from_secs(10));
            assert_eq!(h.alive_count(), 0, "{n}-ring");
            let last = h.terminations().iter().map(|t| t.at).max();
            assert_eq!(
                last.map(|at| at.since(created)),
                Some(Dur::from_millis(lifetime_ms)),
                "{n}-ring"
            );
        }
    }

    #[test]
    fn busy_member_becoming_idle_releases_the_cycle() {
        let mut h = Harness::new(lat());
        let ids = h.add_many(3, cfg());
        for w in 0..3 {
            h.add_ref(ids[w], ids[(w + 1) % 3]);
        }
        h.set_idle(ids[0], true);
        h.set_idle(ids[1], true);
        h.run_for(Dur::from_secs(500));
        assert_eq!(h.alive_count(), 3);
        h.set_idle(ids[2], true);
        h.run_for(Dur::from_secs(800));
        assert_eq!(h.alive_count(), 0);
    }
}
