//! Tenant identity, ownership, and conservation-checked accounting.

use std::collections::BTreeMap;

use dgc_core::id::AoId;
use dgc_obs::{Counter, Registry};

/// A tenant namespace. Tenant `0` is the **default tenant**: every
/// activity not explicitly registered belongs to it, which keeps
/// single-tenant deployments exactly as they were.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u32);

impl TenantId {
    /// The default tenant unregistered activities belong to.
    pub const DEFAULT: TenantId = TenantId(0);
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Which tenant each activity belongs to. Owned by the runtime's event
/// loop (one per node / one per grid) and consulted by the pipeline
/// stages through [`crate::MiddlewareCtx`].
#[derive(Debug, Default, Clone)]
pub struct TenantMap {
    map: BTreeMap<AoId, TenantId>,
}

impl TenantMap {
    /// Empty map: everything is the default tenant.
    pub fn new() -> TenantMap {
        TenantMap::default()
    }

    /// Assigns `ao` to `tenant`. Isolation policy is only as good as
    /// this map: every node enforcing a tenant boundary must know both
    /// endpoints' assignments (drivers broadcast registrations).
    pub fn register(&mut self, ao: AoId, tenant: TenantId) {
        if tenant == TenantId::DEFAULT {
            self.map.remove(&ao);
        } else {
            self.map.insert(ao, tenant);
        }
    }

    /// The tenant `ao` belongs to ([`TenantId::DEFAULT`] when never
    /// registered).
    pub fn of(&self, ao: AoId) -> TenantId {
        self.map.get(&ao).copied().unwrap_or(TenantId::DEFAULT)
    }

    /// True when no activity is registered outside the default tenant.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Per-tenant lifetime app-plane counters, with the same conservation
/// treatment as [`dgc_core::egress::EgressStats`]: every accepted unit
/// is eventually flushed, returned, or still pending —
/// `enqueued = flushed + returned + pending`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantCounters {
    /// App units the pipeline accepted onto the egress plane.
    pub enqueued: u64,
    /// App units flushed toward (or delivered on) their destination.
    pub flushed: u64,
    /// App units returned to the sender as failures (peer unreachable,
    /// frame lost, queue shed or reclaimed).
    pub returned: u64,
    /// Outgoing app units the pipeline rejected (never entered the
    /// egress plane; outside the conservation sum by design).
    pub rejected_outgoing: u64,
    /// Incoming app units the pipeline rejected before dispatch.
    pub rejected_incoming: u64,
}

impl TenantCounters {
    /// Units still in flight on the egress plane, by conservation.
    /// (Saturating: a runtime that flushed more than it enqueued has a
    /// ledger bug, which [`TenantCounters::conserves`] exposes.)
    pub fn pending(&self) -> u64 {
        self.enqueued.saturating_sub(self.flushed + self.returned)
    }

    /// The conservation law itself: no unit unaccounted for. At
    /// quiescence a test additionally asserts `pending() == 0`.
    pub fn conserves(&self) -> bool {
        self.enqueued >= self.flushed + self.returned
    }
}

/// One tenant's `tenant.<id>.app_*` handles in the node's registry,
/// interned when the tenant moves its first unit.
#[derive(Debug)]
struct TenantHandles {
    enqueued: Counter,
    flushed: Counter,
    returned: Counter,
    rejected_outgoing: Counter,
    rejected_incoming: Counter,
}

impl TenantHandles {
    fn new(registry: &Registry, tenant: TenantId) -> TenantHandles {
        let name = |field: &str| format!("tenant.{tenant}.app_{field}");
        TenantHandles {
            enqueued: registry.counter(&name("enqueued")),
            flushed: registry.counter(&name("flushed")),
            returned: registry.counter(&name("returned")),
            rejected_outgoing: registry.counter(&name("rejected_out")),
            rejected_incoming: registry.counter(&name("rejected_in")),
        }
    }

    fn read(&self) -> TenantCounters {
        TenantCounters {
            enqueued: self.enqueued.get(),
            flushed: self.flushed.get(),
            returned: self.returned.get(),
            rejected_outgoing: self.rejected_outgoing.get(),
            rejected_incoming: self.rejected_incoming.get(),
        }
    }
}

/// The per-tenant app-plane ledger one runtime event loop keeps. The
/// counts live in the loop's [`Registry`] under `tenant.<id>.app_*`, so
/// per-tenant traffic merges fleet-wide like every other metric;
/// [`TenantCounters`] is the typed view of one tenant's handles.
#[derive(Debug)]
pub struct TenantLedger {
    registry: Registry,
    per: BTreeMap<TenantId, TenantHandles>,
}

impl TenantLedger {
    /// An empty ledger counting into `registry`.
    pub fn new(registry: &Registry) -> TenantLedger {
        TenantLedger {
            registry: registry.clone(),
            per: BTreeMap::new(),
        }
    }

    fn handles(&mut self, tenant: TenantId) -> &TenantHandles {
        self.per
            .entry(tenant)
            .or_insert_with(|| TenantHandles::new(&self.registry, tenant))
    }

    /// One app unit accepted onto the egress plane.
    pub fn on_enqueued(&mut self, tenant: TenantId) {
        self.handles(tenant).enqueued.incr();
    }

    /// One app unit flushed toward its destination.
    pub fn on_flushed(&mut self, tenant: TenantId) {
        self.handles(tenant).flushed.incr();
    }

    /// One app unit returned to its sender as a failure.
    pub fn on_returned(&mut self, tenant: TenantId) {
        self.handles(tenant).returned.incr();
    }

    /// One outgoing app unit rejected by the pipeline.
    pub fn on_rejected_outgoing(&mut self, tenant: TenantId) {
        self.handles(tenant).rejected_outgoing.incr();
    }

    /// One incoming app unit rejected by the pipeline.
    pub fn on_rejected_incoming(&mut self, tenant: TenantId) {
        self.handles(tenant).rejected_incoming.incr();
    }

    /// `tenant`'s counters (zeros if it never moved a unit).
    pub fn counters(&self, tenant: TenantId) -> TenantCounters {
        self.per
            .get(&tenant)
            .map(TenantHandles::read)
            .unwrap_or_default()
    }

    /// Every tenant that moved at least one unit, with its counters.
    pub fn snapshot(&self) -> Vec<(TenantId, TenantCounters)> {
        self.per.iter().map(|(t, h)| (*t, h.read())).collect()
    }

    /// True when every tenant's counters satisfy the conservation law.
    pub fn conserves(&self) -> bool {
        self.per.values().all(|h| h.read().conserves())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unregistered_activities_are_default_tenant() {
        let mut map = TenantMap::new();
        let a = AoId::new(0, 1);
        assert_eq!(map.of(a), TenantId::DEFAULT);
        map.register(a, TenantId(7));
        assert_eq!(map.of(a), TenantId(7));
        map.register(a, TenantId::DEFAULT);
        assert_eq!(map.of(a), TenantId::DEFAULT);
        assert!(map.is_empty());
    }

    #[test]
    fn ledger_conserves_and_mirrors() {
        let registry = Registry::default();
        let mut ledger = TenantLedger::new(&registry);
        let (a, b) = (TenantId(1), TenantId(2));
        ledger.on_enqueued(a);
        ledger.on_enqueued(a);
        ledger.on_flushed(a);
        ledger.on_returned(a);
        ledger.on_enqueued(b);
        ledger.on_rejected_outgoing(b);
        ledger.on_rejected_incoming(b);
        let ca = ledger.counters(a);
        assert_eq!(ca.enqueued, 2);
        assert_eq!(ca.flushed, 1);
        assert_eq!(ca.returned, 1);
        assert_eq!(ca.pending(), 0);
        assert!(ledger.conserves());
        let cb = ledger.counters(b);
        assert_eq!(cb.pending(), 1);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("tenant.1.app_enqueued"), 2);
        assert_eq!(snap.counter("tenant.1.app_flushed"), 1);
        assert_eq!(snap.counter("tenant.1.app_returned"), 1);
        assert_eq!(snap.counter("tenant.2.app_rejected_out"), 1);
        assert_eq!(snap.counter("tenant.2.app_rejected_in"), 1);
        assert_eq!(ledger.snapshot().len(), 2);
    }

    #[test]
    fn broken_ledger_fails_conservation() {
        let mut ledger = TenantLedger::new(&Registry::default());
        ledger.on_flushed(TenantId(3));
        assert!(!ledger.conserves());
        assert_eq!(ledger.counters(TenantId(3)).pending(), 0);
    }
}
