//! Batched, optionally sharded TTB sweeps.
//!
//! A node hosting many activities drives every due [`DgcState`] once
//! per beat. The naive loop materializes a fresh `Vec<Action>` per
//! activity plus two table-sized `Vec`s inside `on_tick` — at hundreds
//! of thousands of activities that is the sweep's dominant cost. This
//! module is the zero-allocation replacement; the socket runtime, the
//! thread runtime and the in-memory harness all reach it through one
//! caller, [`NodeKernel::tick_due`](crate::kernel::NodeKernel::tick_due):
//!
//! * [`ActionSink`] — where [`DgcState::on_tick_into`] emits its
//!   actions instead of returning a `Vec`; an `Outbox`-feeding sink
//!   makes the sweep one pass from table walk to egress queue.
//! * [`SweepScratch`] — the reusable per-sweep buffers behind
//!   `expire_silent` / `broadcast_targets`.
//! * [`sweep_sharded`] — chunks a due list by activity-id range over N
//!   workers (scoped threads), each filling its own [`SweepUnit`]
//!   buffer; draining the buffers in shard order reproduces the exact
//!   unit order of the unsharded sweep, so determinism — and the
//!   conformance verdicts that hang off it — is preserved by
//!   construction.
//!
//! [`DgcState`]: crate::protocol::DgcState
//! [`DgcState::on_tick_into`]: crate::protocol::DgcState::on_tick_into

use crate::id::AoId;
use crate::message::Action;

/// Receives the actions of a sweep as they are produced.
///
/// `from` names the activity that produced the action — the routing
/// key a batched sweep needs once actions of many activities share one
/// buffer.
pub trait ActionSink {
    /// Accepts one action emitted by `from`.
    fn emit(&mut self, from: AoId, action: Action);
}

/// The compatibility sink: collects actions, drops the origin (the
/// caller already knows it).
impl ActionSink for Vec<Action> {
    #[inline]
    fn emit(&mut self, _from: AoId, action: Action) {
        self.push(action);
    }
}

/// One action of a batched sweep, tagged with its origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepUnit {
    /// The activity that emitted the action.
    pub from: AoId,
    /// The action itself.
    pub action: Action,
}

/// The batching sink: many activities' actions in one reused buffer.
impl ActionSink for Vec<SweepUnit> {
    #[inline]
    fn emit(&mut self, from: AoId, action: Action) {
        self.push(SweepUnit { from, action });
    }
}

/// Reusable scratch buffers for one sweep worker. All buffers are
/// cleared (not shrunk) between activities, so a warm sweep allocates
/// nothing.
#[derive(Debug, Default)]
pub struct SweepScratch {
    /// Referencers expired this tick.
    pub(crate) expired: Vec<AoId>,
    /// Broadcast targets of this tick.
    pub(crate) targets: Vec<AoId>,
    /// Referenced edges dropped after honouring `must_send_once`.
    pub(crate) dropped: Vec<AoId>,
}

impl SweepScratch {
    /// Fresh (cold) scratch buffers.
    pub fn new() -> Self {
        Self::default()
    }
}

/// One sweep worker's `(scratch, unit buffer)` pair.
type Shard = (SweepScratch, Vec<SweepUnit>);

/// Per-shard `(scratch, unit buffer)` pairs, reused across sweeps so
/// the steady state allocates nothing.
#[derive(Debug, Default)]
pub struct SweepPools {
    /// Shard 0 exists from the start: an unsharded sweep runs on it,
    /// and so does a single activity answering a message
    /// ([`SweepPools::unit_buf`]).
    lead: Shard,
    /// Shards 1.., materialized on first use.
    rest: Vec<Shard>,
}

impl SweepPools {
    /// Empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure(&mut self, n: usize) {
        while self.rest.len() + 1 < n {
            self.rest.push(Shard::default());
        }
    }

    fn shards_mut(&mut self) -> impl Iterator<Item = &mut Shard> {
        std::iter::once(&mut self.lead).chain(self.rest.iter_mut())
    }

    /// The first shard's unit buffer: the sink for one activity's
    /// actions outside a sweep, drained like a sweep's.
    pub fn unit_buf(&mut self) -> &mut Vec<SweepUnit> {
        &mut self.lead.1
    }

    /// Drains every buffered unit in shard order — the exact order the
    /// unsharded sweep would have produced.
    pub fn drain_units(&mut self) -> impl Iterator<Item = SweepUnit> + '_ {
        self.shards_mut().flat_map(|(_, buf)| buf.drain(..))
    }

    /// Units currently buffered (all shards).
    pub fn buffered(&self) -> usize {
        self.lead.1.len() + self.rest.iter().map(|(_, buf)| buf.len()).sum::<usize>()
    }
}

/// Sweeps `due` with up to `shards` parallel workers.
///
/// `due` must already be in the deterministic order the caller wants
/// units emitted in (runtimes pass activity-id order); it is split into
/// contiguous chunks — id *ranges* — one per worker. Each worker runs
/// `tick` over its chunk with a private [`SweepScratch`] and
/// [`SweepUnit`] buffer from `pools`; afterwards
/// [`SweepPools::drain_units`] yields all units in shard order, which
/// equals the sequential order. With `shards <= 1` (or a single due
/// entry) no thread is spawned and the sweep runs inline.
pub fn sweep_sharded<E, F>(due: &mut [E], shards: usize, pools: &mut SweepPools, tick: F)
where
    E: Send,
    F: Fn(&mut E, &mut SweepScratch, &mut Vec<SweepUnit>) + Sync,
{
    let shards = shards.clamp(1, due.len().max(1));
    pools.ensure(shards);
    if shards == 1 {
        let (scratch, buf) = &mut pools.lead;
        for e in due.iter_mut() {
            tick(e, scratch, buf);
        }
        return;
    }
    let chunk = due.len().div_ceil(shards);
    std::thread::scope(|s| {
        for (slot, es) in pools.shards_mut().zip(due.chunks_mut(chunk)) {
            let tick = &tick;
            s.spawn(move || {
                let (scratch, buf) = slot;
                for e in es.iter_mut() {
                    tick(e, scratch, buf);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::TerminateReason;

    fn ao(i: u32) -> AoId {
        AoId::new(0, i)
    }

    fn terminate() -> Action {
        Action::Terminate {
            reason: TerminateReason::Acyclic,
        }
    }

    #[test]
    fn vec_action_sink_collects() {
        let mut v: Vec<Action> = Vec::new();
        v.emit(ao(1), terminate());
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn sharded_order_matches_sequential() {
        // 25 "activities" each emitting its own id; any shard count must
        // reproduce the sequential emission order.
        let mut seq: Vec<u32> = Vec::new();
        for shards in [1usize, 2, 3, 7, 25, 64] {
            let mut due: Vec<u32> = (0..25).collect();
            let mut pools = SweepPools::new();
            sweep_sharded(&mut due, shards, &mut pools, |e, _scratch, buf| {
                buf.emit(ao(*e), terminate());
                // Mark the entry so we know every chunk was visited.
                *e += 100;
            });
            let got: Vec<u32> = pools.drain_units().map(|u| u.from.index).collect();
            assert!(due.iter().all(|e| *e >= 100), "shards={shards}");
            if shards == 1 {
                seq = got.clone();
            }
            assert_eq!(got, seq, "shards={shards}");
            assert_eq!(pools.buffered(), 0, "drained clean");
        }
    }

    #[test]
    fn empty_due_list_is_fine() {
        let mut due: Vec<u32> = Vec::new();
        let mut pools = SweepPools::new();
        sweep_sharded(&mut due, 4, &mut pools, |_, _, _| unreachable!());
        assert_eq!(pools.drain_units().count(), 0);
    }
}
