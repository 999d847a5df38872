//! The egress plane: one per-destination outbox for every message the
//! node sends, whatever plane it belongs to.
//!
//! The paper's §4.2 bandwidth argument assumes DGC heartbeats ride
//! communication that is flowing anyway; before this module each plane
//! paid its own way — the socket runtime batched DGC units only with
//! each other, membership gossiped on its own cadence, and application
//! requests shipped alone. The egress plane replaces those per-feature
//! batching policies with **one** composable mechanism: every outgoing
//! unit, classified by [`EgressClass`], is enqueued into a runtime's
//! [`Outbox`]; the [`FlushPolicy`] decides when a destination's queue
//! becomes a frame:
//!
//! * **flush-on-app-send** — an application request/reply is latency
//!   sensitive and flushes its destination immediately, carrying every
//!   queued heartbeat and gossip digest with it for free (the
//!   *piggyback*: a heartbeat to a peer we are already talking to costs
//!   ~0 extra frames);
//! * **max-delay** — background units (heartbeats, digests, control)
//!   may linger at most this long waiting for company;
//! * **max-bytes / max-items** — a queue that grows past either bound
//!   flushes early so frames stay bounded.
//!
//! The outbox is sans-io and runtime-neutral, like the rest of this
//! crate: `dgc-rt-net` drives one per node event loop and turns flushes
//! into length-prefixed TCP frames; `dgc-simnet`'s grid drives one per
//! process and turns flushes into single metered network sends (one
//! call envelope per frame instead of one per unit, which is exactly
//! the saving the paper measures). Items flush in enqueue order, so
//! per-destination — and therefore per-class — FIFO is preserved, the
//! §3.2 transport assumption both runtimes rely on.

use std::collections::HashMap;
use std::marker::PhantomData;

use dgc_obs::{Counter, Histogram, LocalHistogram, Registry};

use crate::units::{Dur, Time};

/// Classification of an egress unit: which plane it belongs to.
///
/// The classes mirror the traffic accounting of the paper's
/// instrumented proxy (and `dgc_simnet::TrafficClass`); the egress
/// plane itself only distinguishes *application* traffic (which
/// triggers flush-on-app-send) from everything else.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EgressClass {
    /// An application request (method call between activities).
    AppRequest,
    /// An application reply (future value).
    AppReply,
    /// A DGC message (TTB heartbeat).
    DgcMessage,
    /// A DGC response.
    DgcResponse,
    /// A membership gossip digest.
    Gossip,
    /// Transport control (send-failure notifications and the like).
    Control,
}

impl EgressClass {
    /// True for the latency-sensitive application classes that trigger
    /// flush-on-app-send.
    pub fn is_app(self) -> bool {
        matches!(self, EgressClass::AppRequest | EgressClass::AppReply)
    }
}

/// When a destination's queue becomes a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushPolicy {
    /// Flush the destination the moment an application unit is
    /// enqueued, so background units piggyback on the app frame.
    pub flush_on_app: bool,
    /// Longest a queued unit may wait for company. [`Dur::ZERO`] makes
    /// the outbox *immediate*: every enqueue flushes by itself (the
    /// one-frame-per-unit behaviour the paper measured as baseline).
    pub max_delay: Dur,
    /// Flush when a destination's queued bytes reach this bound.
    pub max_bytes: u64,
    /// Flush when a destination's queued unit count reaches this bound.
    pub max_items: usize,
}

impl FlushPolicy {
    /// Every enqueue flushes by itself — no coalescing, no added
    /// latency. The baseline the batching comparisons run against.
    /// (`max_items` stays above 1 so these flushes report as
    /// [`FlushReason::MaxDelay`], the immediate-policy reason, not as
    /// a bounds trip.)
    pub fn immediate() -> FlushPolicy {
        FlushPolicy {
            flush_on_app: true,
            max_delay: Dur::ZERO,
            max_bytes: 64 * 1024,
            max_items: 4096,
        }
    }

    /// True when every enqueue flushes immediately.
    pub fn is_immediate(&self) -> bool {
        self.max_delay.is_zero()
    }
}

impl Default for FlushPolicy {
    /// Batching defaults: app sends flush instantly (and carry the
    /// queue), background units linger up to 1 ms — comfortably one
    /// event-loop sweep at millisecond TTBs, invisible at the paper's
    /// 30 s TTB — and frames stay under 64 KiB / 4096 units.
    fn default() -> FlushPolicy {
        FlushPolicy {
            flush_on_app: true,
            max_delay: Dur::from_millis(1),
            max_bytes: 64 * 1024,
            max_items: 4096,
        }
    }
}

/// One unit inside the outbox (and inside a [`Flush`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueuedItem<T> {
    /// The unit's plane.
    pub class: EgressClass,
    /// Its wire size in bytes (what the runtime will charge the link).
    pub size: u64,
    /// The unit itself.
    pub item: T,
}

/// Why a flush fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushReason {
    /// An application unit was enqueued (flush-on-app-send); everything
    /// else in the flush piggybacked.
    AppSend,
    /// The oldest queued unit reached `max_delay` (or the policy is
    /// immediate).
    MaxDelay,
    /// The queue reached `max_bytes` or `max_items`.
    Bounds,
    /// The runtime forced the flush (shutdown, graceful leave).
    Forced,
}

/// A destination's queue inside an [`Outbox`]: what an enqueue appends
/// to and what a flush takes away whole.
///
/// The outbox keeps the policy, the byte and item counts, the deadline
/// and the stats; the queue only holds the units, in whatever form the
/// runtime wants them to wait in. The default, `Vec<QueuedItem<T>>`,
/// keeps them as they came; a socket runtime can encode each unit into
/// its frame as it arrives, so a flush is already wire bytes.
pub trait EgressQueue<T>: Default {
    /// What one flush of this queue hands the runtime.
    type Batch;
    /// Appends one unit.
    fn push(&mut self, unit: QueuedItem<T>);
    /// Units queued.
    fn len(&self) -> usize;
    /// True while nothing is queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Takes everything queued, oldest first, leaving the queue empty.
    fn take(&mut self) -> Self::Batch;
    /// Takes everything queued back as units, leaving the queue empty:
    /// the cold path of a departed destination ([`Outbox::drop_dest`]).
    fn drain(&mut self) -> Vec<QueuedItem<T>>;
}

impl<T> EgressQueue<T> for Vec<QueuedItem<T>> {
    type Batch = Vec<QueuedItem<T>>;

    fn push(&mut self, unit: QueuedItem<T>) {
        Vec::push(self, unit);
    }

    fn len(&self) -> usize {
        Vec::len(self)
    }

    fn take(&mut self) -> Vec<QueuedItem<T>> {
        std::mem::take(self)
    }

    fn drain(&mut self) -> Vec<QueuedItem<T>> {
        std::mem::take(self)
    }
}

/// One frame's worth of units for one destination, in enqueue order:
/// a destination queue's [`EgressQueue::Batch`] (by default the units
/// themselves).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Flush<T, B = Vec<QueuedItem<T>>> {
    /// Destination node.
    pub dest: u32,
    /// What fired it.
    pub reason: FlushReason,
    /// The units, oldest first.
    pub items: B,
    _unit: PhantomData<fn() -> T>,
}

impl<T> Flush<T> {
    /// Total payload bytes of the flush.
    pub fn bytes(&self) -> u64 {
        self.items.iter().map(|i| i.size).sum()
    }
}

/// Monotone counters of what the outbox did, for benches and tests.
///
/// Conservation invariant (checked by `tests/egress_props.rs`): every
/// unit that enters the outbox either flushes or is returned by
/// [`Outbox::drop_dest`], so
/// `enqueued_items = items + dropped_items + pending` (and likewise
/// for bytes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EgressStats {
    /// Units accepted by [`Outbox::enqueue`].
    pub enqueued_items: u64,
    /// Payload bytes accepted by [`Outbox::enqueue`].
    pub enqueued_bytes: u64,
    /// Units returned by [`Outbox::drop_dest`] for departed peers.
    pub dropped_items: u64,
    /// Payload bytes returned by [`Outbox::drop_dest`].
    pub dropped_bytes: u64,
    /// Flushes emitted (= frames the runtime will send).
    pub flushes: u64,
    /// Units flushed.
    pub items: u64,
    /// Payload bytes flushed.
    pub bytes: u64,
    /// Non-app units that rode an [`FlushReason::AppSend`] flush — the
    /// heartbeats and digests that cost no frame of their own.
    pub piggybacked: u64,
    /// Flushes fired by an application send.
    pub app_flushes: u64,
    /// Flushes fired by the delay bound (or immediate policy).
    pub delay_flushes: u64,
    /// Flushes fired by the byte/item bounds.
    pub bound_flushes: u64,
    /// Flushes forced by the runtime.
    pub forced_flushes: u64,
}

/// Cached `dgc-obs` handles an [`Outbox`] mirrors its [`EgressStats`]
/// into when attached ([`Outbox::set_obs`]). Counter names live under
/// `egress.` in the owning node's registry and converge to that
/// struct by delta-sync: the enqueue and flush hot paths touch **no**
/// shared atomics — histogram samples buffer in a [`LocalHistogram`]
/// and counter deltas accumulate in plain stats, and the outbox pushes
/// both into the registry on a sparse cadence (every
/// [`SYNC_EVERY_FLUSHES`]th flush, any forced flush or destination
/// drop, and whenever the outbox drains empty). A mid-burst snapshot
/// may therefore lag the struct slightly; at quiescence they are
/// equal (the conservation tests cross-check). The histograms add what
/// plain counters cannot: the distribution of how long flushed units
/// lingered waiting for company (`egress.flush_linger_ns`) and of
/// flush sizes (`egress.flush_items`).
#[derive(Debug, Clone)]
pub struct EgressObs {
    enqueued_items: Counter,
    enqueued_bytes: Counter,
    dropped_items: Counter,
    dropped_bytes: Counter,
    flushes: Counter,
    items: Counter,
    bytes: Counter,
    piggybacked: Counter,
    app_flushes: Counter,
    delay_flushes: Counter,
    bound_flushes: Counter,
    forced_flushes: Counter,
    flush_linger: Histogram,
    flush_items: Histogram,
}

impl EgressObs {
    /// Resolves the outbox's handles against `registry`.
    pub fn new(registry: &Registry) -> EgressObs {
        EgressObs {
            enqueued_items: registry.counter("egress.enqueued_items"),
            enqueued_bytes: registry.counter("egress.enqueued_bytes"),
            dropped_items: registry.counter("egress.dropped_items"),
            dropped_bytes: registry.counter("egress.dropped_bytes"),
            flushes: registry.counter("egress.flushes"),
            items: registry.counter("egress.items"),
            bytes: registry.counter("egress.bytes"),
            piggybacked: registry.counter("egress.piggybacked"),
            app_flushes: registry.counter("egress.flush_reason.app"),
            delay_flushes: registry.counter("egress.flush_reason.delay"),
            bound_flushes: registry.counter("egress.flush_reason.bounds"),
            forced_flushes: registry.counter("egress.flush_reason.forced"),
            flush_linger: registry.histogram("egress.flush_linger_ns"),
            flush_items: registry.histogram("egress.flush_items"),
        }
    }
}

#[derive(Debug)]
struct DestQueue<Q> {
    /// The destination this slot currently serves (stale in freed
    /// slots, which always have empty `items`).
    dest: u32,
    items: Q,
    bytes: u64,
    /// How many of `items` are application units.
    apps: u64,
    /// When the oldest queued item must flush.
    deadline: Time,
    /// When the oldest queued item was enqueued (linger histogram).
    first_at: Time,
}

/// The per-destination outbox. `T` is the runtime's unit type (a frame
/// item on sockets, a scheduled event payload in the simulator); the
/// outbox never looks inside it. `Q` is the form a destination's units
/// wait in (see [`EgressQueue`]); whatever it is, the outbox charges
/// each unit the `size` it was enqueued with against `max_bytes`, so
/// flush decisions do not depend on it.
///
/// Queues live in a dense slot `Vec` — one slot per destination, found
/// through a `dest → slot` index with a one-entry cache in front (a
/// TTB sweep enqueues runs of units for the same destination; those
/// repeats skip the map entirely). A departed destination's slot is
/// recycled through a free list, keeping the slot vector bounded by
/// the peak number of live destinations. Flush order is deterministic:
/// [`Outbox::poll`] and [`Outbox::flush_all`] emit in ascending
/// destination order, exactly as the `BTreeMap`-backed original did.
#[derive(Debug)]
pub struct Outbox<T, Q = Vec<QueuedItem<T>>> {
    policy: FlushPolicy,
    slots: Vec<DestQueue<Q>>,
    /// Destination → slot index. Lookups iterate nothing, so the map's
    /// (hash) iteration order never influences behavior.
    index: HashMap<u32, usize>,
    /// Recycled slots of departed destinations.
    free: Vec<usize>,
    /// Last `(dest, slot)` touched — the sweep-burst fast path.
    last_slot: Option<(u32, usize)>,
    stats: EgressStats,
    obs: Option<EgressObs>,
    /// The stats values already pushed into `obs` (delta-sync marker).
    mirrored: EgressStats,
    /// Cached `Σ slots.items.len()` so the drained-empty sync trigger
    /// costs one integer compare instead of a slot walk.
    pending: u64,
    /// Flushes since the last [`Outbox::sync_obs`].
    unsynced_flushes: u32,
    local_flush_linger: LocalHistogram,
    local_flush_items: LocalHistogram,
    _unit: PhantomData<fn(T)>,
}

/// How many flushes may pass between registry syncs while the outbox
/// stays non-empty. Small enough that observers stay fresh to within a
/// burst, large enough to amortize the shared-atomic traffic to noise.
pub const SYNC_EVERY_FLUSHES: u32 = 64;

impl<T, Q: EgressQueue<T>> Outbox<T, Q> {
    /// An empty outbox under `policy`.
    pub fn new(policy: FlushPolicy) -> Outbox<T, Q> {
        Outbox {
            policy,
            slots: Vec::new(),
            index: HashMap::new(),
            free: Vec::new(),
            last_slot: None,
            stats: EgressStats::default(),
            obs: None,
            mirrored: EgressStats::default(),
            pending: 0,
            unsynced_flushes: 0,
            local_flush_linger: LocalHistogram::new(),
            local_flush_items: LocalHistogram::new(),
            _unit: PhantomData,
        }
    }

    /// The slot serving `dest`, if any — the one-entry cache first,
    /// then the index.
    #[inline]
    fn slot_of(&self, dest: u32) -> Option<usize> {
        if let Some((d, s)) = self.last_slot {
            if d == dest {
                return Some(s);
            }
        }
        self.index.get(&dest).copied()
    }

    /// The slot serving `dest`, materializing one (recycled if
    /// possible) on first use.
    fn slot_for(&mut self, dest: u32, now: Time) -> usize {
        if let Some(s) = self.slot_of(dest) {
            self.last_slot = Some((dest, s));
            return s;
        }
        let s = match self.free.pop() {
            Some(s) => {
                // dgc-analysis: allow(hot-path-panic): slot index comes from the free list / slot map, in bounds by construction
                let q = &mut self.slots[s];
                debug_assert!(q.items.is_empty(), "freed slot must be drained");
                q.dest = dest;
                q.bytes = 0;
                q.apps = 0;
                q.deadline = now + self.policy.max_delay;
                q.first_at = now;
                s
            }
            None => {
                self.slots.push(DestQueue {
                    dest,
                    items: Q::default(),
                    bytes: 0,
                    apps: 0,
                    deadline: now + self.policy.max_delay,
                    first_at: now,
                });
                self.slots.len() - 1
            }
        };
        self.index.insert(dest, s);
        self.last_slot = Some((dest, s));
        s
    }

    /// Attaches telemetry handles; the outbox mirrors its stats into
    /// the registry they came from at every flush boundary (see
    /// [`EgressObs`] — the enqueue hot path stays atomic-free).
    pub fn set_obs(&mut self, obs: EgressObs) {
        self.obs = Some(obs);
        self.sync_obs();
    }

    /// Pushes the not-yet-mirrored stats deltas and buffered histogram
    /// samples into the registry handles. Called on the sparse sync
    /// cadence, never per enqueue.
    fn sync_obs(&mut self) {
        let Some(obs) = &self.obs else { return };
        self.unsynced_flushes = 0;
        self.local_flush_linger.drain_into(&obs.flush_linger);
        self.local_flush_items.drain_into(&obs.flush_items);
        let s = self.stats;
        let m = &mut self.mirrored;
        let push = |c: &Counter, new: u64, old: &mut u64| {
            if new > *old {
                c.add(new - *old);
                *old = new;
            }
        };
        push(&obs.enqueued_items, s.enqueued_items, &mut m.enqueued_items);
        push(&obs.enqueued_bytes, s.enqueued_bytes, &mut m.enqueued_bytes);
        push(&obs.dropped_items, s.dropped_items, &mut m.dropped_items);
        push(&obs.dropped_bytes, s.dropped_bytes, &mut m.dropped_bytes);
        push(&obs.flushes, s.flushes, &mut m.flushes);
        push(&obs.items, s.items, &mut m.items);
        push(&obs.bytes, s.bytes, &mut m.bytes);
        push(&obs.piggybacked, s.piggybacked, &mut m.piggybacked);
        push(&obs.app_flushes, s.app_flushes, &mut m.app_flushes);
        push(&obs.delay_flushes, s.delay_flushes, &mut m.delay_flushes);
        push(&obs.bound_flushes, s.bound_flushes, &mut m.bound_flushes);
        push(&obs.forced_flushes, s.forced_flushes, &mut m.forced_flushes);
    }

    /// The policy in force.
    pub fn policy(&self) -> &FlushPolicy {
        &self.policy
    }

    /// Queues one unit for `dest` and returns the flush it triggered,
    /// if the policy demands one *now* (app send, a bound reached, or
    /// an immediate policy). Otherwise the unit waits — the runtime
    /// must call [`Outbox::poll`] no later than
    /// [`Outbox::next_deadline`].
    pub fn enqueue(
        &mut self,
        now: Time,
        dest: u32,
        class: EgressClass,
        size: u64,
        item: T,
    ) -> Option<Flush<T, Q::Batch>> {
        let s = self.slot_for(dest, now);
        // dgc-analysis: allow(hot-path-panic): slot index comes from the free list / slot map, in bounds by construction
        let q = &mut self.slots[s];
        if q.items.is_empty() {
            q.deadline = now + self.policy.max_delay;
            q.first_at = now;
        }
        q.items.push(QueuedItem { class, size, item });
        q.bytes += size;
        q.apps += u64::from(class.is_app());
        self.pending += 1;
        self.stats.enqueued_items += 1;
        self.stats.enqueued_bytes += size;
        if self.policy.flush_on_app && class.is_app() {
            return self.take(Some(now), dest, FlushReason::AppSend);
        }
        if q.bytes >= self.policy.max_bytes || q.items.len() >= self.policy.max_items {
            return self.take(Some(now), dest, FlushReason::Bounds);
        }
        if self.policy.max_delay.is_zero() {
            return self.take(Some(now), dest, FlushReason::MaxDelay);
        }
        None
    }

    /// Flushes every destination whose oldest unit has waited out
    /// `max_delay`, in ascending destination order.
    pub fn poll(&mut self, now: Time) -> Vec<Flush<T, Q::Batch>> {
        let mut due: Vec<u32> = self
            .slots
            .iter()
            .filter(|q| !q.items.is_empty() && q.deadline <= now)
            .map(|q| q.dest)
            .collect();
        due.sort_unstable();
        due.into_iter()
            .filter_map(|d| self.take(Some(now), d, FlushReason::MaxDelay))
            .collect()
    }

    /// The earliest instant a queued unit must flush; `None` while
    /// nothing is queued.
    pub fn next_deadline(&self) -> Option<Time> {
        self.slots
            .iter()
            .filter(|q| !q.items.is_empty())
            .map(|q| q.deadline)
            .min()
    }

    /// Forces `dest`'s queue out (shutdown, graceful leave).
    pub fn flush(&mut self, dest: u32) -> Option<Flush<T, Q::Batch>> {
        self.take(None, dest, FlushReason::Forced)
    }

    /// Forces every queue out, destination order.
    pub fn flush_all(&mut self) -> Vec<Flush<T, Q::Batch>> {
        let mut dests: Vec<u32> = self
            .slots
            .iter()
            .filter(|q| !q.items.is_empty())
            .map(|q| q.dest)
            .collect();
        dests.sort_unstable();
        dests
            .into_iter()
            .filter_map(|d| self.take(None, d, FlushReason::Forced))
            .collect()
    }

    /// Forgets `dest` entirely — queue, byte count and flush deadline —
    /// and returns whatever was still waiting, oldest first.
    ///
    /// This is the reclamation path for a **departed** peer (a
    /// membership Dead/Left verdict, a terminal transport conviction):
    /// without it a destination's queue lives for the outbox's whole
    /// lifetime, exactly like the lease lists of Birrell-style
    /// reference listing retaining state for parties that are gone. The
    /// caller must surface the returned units as send failures — they
    /// were accepted for delivery and must not silently vanish.
    pub fn drop_dest(&mut self, dest: u32) -> Vec<QueuedItem<T>> {
        let Some(s) = self.index.remove(&dest) else {
            return Vec::new();
        };
        if self.last_slot.map(|(d, _)| d) == Some(dest) {
            self.last_slot = None;
        }
        // dgc-analysis: allow(hot-path-panic): slot index comes from the free list / slot map, in bounds by construction
        let q = &mut self.slots[s];
        let items = q.items.drain();
        let bytes = q.bytes;
        q.bytes = 0;
        q.apps = 0;
        self.free.push(s);
        self.pending -= items.len() as u64;
        self.stats.dropped_items += items.len() as u64;
        self.stats.dropped_bytes += bytes;
        self.sync_obs();
        items
    }

    /// Units currently waiting across all destinations.
    pub fn pending_items(&self) -> usize {
        self.slots.iter().map(|q| q.items.len()).sum()
    }

    /// Payload bytes currently waiting across all destinations.
    pub fn pending_bytes(&self) -> u64 {
        self.slots.iter().map(|q| q.bytes).sum()
    }

    /// Units currently waiting for `dest` (0 after a
    /// [`Outbox::drop_dest`]).
    pub fn pending_items_for(&self, dest: u32) -> usize {
        // dgc-analysis: allow(hot-path-panic): slot index comes from the free list / slot map, in bounds by construction
        self.slot_of(dest).map_or(0, |s| self.slots[s].items.len())
    }

    /// What the outbox has flushed so far.
    pub fn stats(&self) -> EgressStats {
        self.stats
    }

    fn take(
        &mut self,
        now: Option<Time>,
        dest: u32,
        reason: FlushReason,
    ) -> Option<Flush<T, Q::Batch>> {
        let s = self.slot_of(dest)?;
        // dgc-analysis: allow(hot-path-panic): slot index comes from the free list / slot map, in bounds by construction
        let q = &mut self.slots[s];
        if q.items.is_empty() {
            return None;
        }
        let first_at = q.first_at;
        let count = q.items.len() as u64;
        let items = q.items.take();
        let flushed_bytes = std::mem::take(&mut q.bytes);
        let rode_along = count - std::mem::take(&mut q.apps);
        self.pending -= count;
        self.stats.flushes += 1;
        self.stats.items += count;
        self.stats.bytes += flushed_bytes;
        match reason {
            FlushReason::AppSend => {
                self.stats.app_flushes += 1;
                self.stats.piggybacked += rode_along;
            }
            FlushReason::MaxDelay => self.stats.delay_flushes += 1,
            FlushReason::Bounds => self.stats.bound_flushes += 1,
            FlushReason::Forced => self.stats.forced_flushes += 1,
        }
        if self.obs.is_some() {
            self.local_flush_items.record(count);
            // How long the oldest unit waited for company; forced
            // flushes carry no "now" and skip the sample.
            if let Some(now) = now {
                self.local_flush_linger
                    .record(now.since(first_at).as_nanos());
            }
            self.unsynced_flushes += 1;
            if self.unsynced_flushes >= SYNC_EVERY_FLUSHES
                || self.pending == 0
                || reason == FlushReason::Forced
            {
                self.sync_obs();
            }
        }
        Some(Flush {
            dest,
            reason,
            items,
            _unit: PhantomData,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Time {
        Time::from_nanos(v * 1_000_000)
    }

    fn policy() -> FlushPolicy {
        FlushPolicy {
            flush_on_app: true,
            max_delay: Dur::from_millis(5),
            max_bytes: 1000,
            max_items: 10,
        }
    }

    #[test]
    fn background_units_linger_until_max_delay() {
        let mut ob: Outbox<u32> = Outbox::new(policy());
        assert!(ob
            .enqueue(ms(0), 1, EgressClass::DgcMessage, 34, 0)
            .is_none());
        assert!(ob.enqueue(ms(1), 1, EgressClass::Gossip, 20, 1).is_none());
        assert_eq!(ob.next_deadline(), Some(ms(5)));
        assert!(ob.poll(ms(4)).is_empty(), "not due yet");
        let flushes = ob.poll(ms(5));
        assert_eq!(flushes.len(), 1);
        assert_eq!(flushes[0].reason, FlushReason::MaxDelay);
        assert_eq!(flushes[0].items.len(), 2);
        assert_eq!(flushes[0].bytes(), 54);
        assert_eq!(ob.pending_items(), 0);
        assert_eq!(ob.next_deadline(), None);
    }

    #[test]
    fn app_send_flushes_and_piggybacks_the_queue() {
        let mut ob: Outbox<u32> = Outbox::new(policy());
        ob.enqueue(ms(0), 1, EgressClass::DgcMessage, 34, 0);
        ob.enqueue(ms(0), 1, EgressClass::Gossip, 20, 1);
        // A different destination's queue must be untouched.
        ob.enqueue(ms(0), 2, EgressClass::DgcMessage, 34, 9);
        let flush = ob
            .enqueue(ms(1), 1, EgressClass::AppRequest, 128, 2)
            .expect("app send flushes");
        assert_eq!(flush.reason, FlushReason::AppSend);
        assert_eq!(flush.dest, 1);
        let order: Vec<u32> = flush.items.iter().map(|i| i.item).collect();
        assert_eq!(order, vec![0, 1, 2], "enqueue order preserved");
        assert_eq!(ob.stats().piggybacked, 2, "heartbeat + digest rode along");
        assert_eq!(ob.pending_items(), 1, "dest 2 still queued");
    }

    #[test]
    fn byte_and_item_bounds_flush_early() {
        let mut ob: Outbox<u32> = Outbox::new(policy());
        let flush = ob
            .enqueue(ms(0), 1, EgressClass::DgcMessage, 2000, 0)
            .expect("oversized unit flushes at once");
        assert_eq!(flush.reason, FlushReason::Bounds);
        for i in 0..9 {
            assert!(ob.enqueue(ms(0), 1, EgressClass::Control, 1, i).is_none());
        }
        let flush = ob
            .enqueue(ms(0), 1, EgressClass::Control, 1, 9)
            .expect("10th unit hits max_items");
        assert_eq!(flush.items.len(), 10);
    }

    #[test]
    fn immediate_policy_flushes_every_enqueue() {
        let mut ob: Outbox<u32> = Outbox::new(FlushPolicy::immediate());
        assert!(FlushPolicy::immediate().is_immediate());
        for i in 0..3 {
            let f = ob
                .enqueue(ms(0), 7, EgressClass::DgcResponse, 26, i)
                .expect("immediate");
            assert_eq!(f.items.len(), 1);
            assert_eq!(f.reason, FlushReason::MaxDelay, "the immediate reason");
        }
        assert_eq!(ob.stats().flushes, 3);
        assert_eq!(ob.stats().delay_flushes, 3);
        assert_eq!(ob.stats().piggybacked, 0);
    }

    #[test]
    fn deadline_restarts_with_each_fresh_queue() {
        let mut ob: Outbox<u32> = Outbox::new(policy());
        ob.enqueue(ms(0), 1, EgressClass::DgcMessage, 1, 0);
        ob.poll(ms(5));
        // The queue emptied; a later unit gets its own full delay.
        ob.enqueue(ms(20), 1, EgressClass::DgcMessage, 1, 1);
        assert_eq!(ob.next_deadline(), Some(ms(25)));
        // But the deadline is pinned to the *oldest* unit: later
        // arrivals do not extend it.
        ob.enqueue(ms(24), 1, EgressClass::DgcMessage, 1, 2);
        assert_eq!(ob.next_deadline(), Some(ms(25)));
    }

    #[test]
    fn drop_dest_forgets_queue_bytes_and_deadline() {
        let mut ob: Outbox<u32> = Outbox::new(policy());
        ob.enqueue(ms(0), 1, EgressClass::DgcMessage, 34, 0);
        ob.enqueue(ms(1), 1, EgressClass::Gossip, 20, 1);
        ob.enqueue(ms(2), 2, EgressClass::DgcMessage, 34, 2);
        assert_eq!(ob.next_deadline(), Some(ms(5)), "dest 1 owns the wakeup");
        let returned = ob.drop_dest(1);
        let items: Vec<u32> = returned.iter().map(|qi| qi.item).collect();
        assert_eq!(items, vec![0, 1], "queued units come back, oldest first");
        assert_eq!(ob.pending_items_for(1), 0);
        assert_eq!(ob.pending_items(), 1, "dest 2 untouched");
        assert_eq!(ob.pending_bytes(), 34);
        assert_eq!(
            ob.next_deadline(),
            Some(ms(7)),
            "the departed peer's wakeup deadline is gone with its queue"
        );
        let stats = ob.stats();
        assert_eq!(stats.dropped_items, 2);
        assert_eq!(stats.dropped_bytes, 54);
        assert_eq!(stats.enqueued_items, 3);
        assert!(ob.drop_dest(1).is_empty(), "idempotent");
        assert!(ob.drop_dest(9).is_empty(), "unknown destinations are fine");
    }

    #[test]
    fn stats_conserve_items_and_bytes() {
        let mut ob: Outbox<u32> = Outbox::new(policy());
        ob.enqueue(ms(0), 1, EgressClass::DgcMessage, 10, 0);
        ob.enqueue(ms(0), 2, EgressClass::Gossip, 20, 1);
        ob.enqueue(ms(0), 1, EgressClass::AppRequest, 30, 2); // flushes dest 1
        ob.drop_dest(2);
        ob.enqueue(ms(0), 3, EgressClass::Control, 40, 3); // still pending
        let s = ob.stats();
        assert_eq!(s.enqueued_items, 4);
        assert_eq!(s.enqueued_bytes, 100);
        assert_eq!(
            s.enqueued_items,
            s.items + s.dropped_items + ob.pending_items() as u64
        );
        assert_eq!(
            s.enqueued_bytes,
            s.bytes + s.dropped_bytes + ob.pending_bytes()
        );
    }

    #[test]
    fn forced_flush_drains_everything() {
        let mut ob: Outbox<u32> = Outbox::new(policy());
        ob.enqueue(ms(0), 1, EgressClass::DgcMessage, 1, 0);
        ob.enqueue(ms(0), 3, EgressClass::Gossip, 1, 1);
        ob.enqueue(ms(0), 2, EgressClass::Control, 1, 2);
        let flushes = ob.flush_all();
        assert_eq!(flushes.len(), 3);
        assert!(flushes.iter().all(|f| f.reason == FlushReason::Forced));
        let dests: Vec<u32> = flushes.iter().map(|f| f.dest).collect();
        assert_eq!(dests, vec![1, 2, 3], "destination order");
        assert_eq!(ob.pending_items(), 0);
        assert!(ob.flush(1).is_none(), "nothing left");
    }
}
