//! Transport-level knobs for a [`crate::node::NetNode`].

use std::time::Duration;

use dgc_core::config::DgcConfig;
use dgc_core::egress::FlushPolicy;
use dgc_membership::MembershipConfig;
use dgc_obs::TraceLevel;
use dgc_plane::AuthKey;

/// Configuration of one network node: the DGC parameters its activities
/// run with plus the link behaviour of the transport.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Protocol parameters handed to every hosted [`dgc_core::DgcState`].
    pub dgc: DgcConfig,
    /// The egress plane's flush policy: when a destination's queued
    /// units (heartbeats, digests, control, app payloads) become a
    /// frame. The default coalesces background units for up to 1 ms and
    /// flushes immediately — with the queue piggybacking — on every
    /// application send; [`FlushPolicy::immediate`] restores the
    /// one-RMI-call-per-message behaviour the paper measured as its
    /// baseline.
    pub egress: FlushPolicy,
    /// First reconnect delay after a link drops; doubles per failure.
    pub reconnect_base: Duration,
    /// Reconnect delay cap.
    pub reconnect_max: Duration,
    /// Consecutive connection failures after which queued items for the
    /// peer are reported to the local protocol as send failures and the
    /// link goes **terminal** — an unreachable-peer verdict instead of
    /// an endless retry (referencers then drop the unreachable edges,
    /// as the paper's collector does when an RMI call fails
    /// permanently). Reached only after the full backoff ladder, so
    /// chaos-length partitions reconnect long before it fires.
    pub fail_after_attempts: u32,
    /// When set, the node runs a `dgc-membership` engine: gossip
    /// digests piggyback on frames, peers are discovered through
    /// [`crate::NetNode::join`] seeds, and dead verdicts feed the
    /// collectors' send-failure path. `None` keeps the static
    /// registration behaviour.
    pub membership: Option<MembershipConfig>,
    /// Structured-tracing filter for the node's telemetry plane
    /// ([`dgc_obs::Tracer`]). `Off` (the default) keeps the hot paths
    /// allocation-free; conformance runners flip it from `DGC_TRACE`.
    pub trace: TraceLevel,
    /// TTB sweep shards: how many threads a node's due-endpoint sweep
    /// fans out across ([`dgc_core::sweep_sharded`]). `1` (the default)
    /// sweeps inline on the event loop with no thread handoff. Whatever
    /// the count, emitted units drain into the egress plane in shard
    /// order — identical to the sequential order — so the verdict
    /// stream is shard-count independent. Defaults to
    /// `DGC_SWEEP_SHARDS` when set, so every runner honours the knob
    /// without plumbing.
    pub sweep_shards: usize,
    /// Most items a single link will hold queued before it sheds its
    /// oldest frames (never its newest one): a slow or dead peer must
    /// not hoard unbounded memory. Shed application payloads surface as
    /// failed sends; background units regenerate on protocol cadence.
    pub max_link_pending: usize,
    /// When set, every link runs the `dgc-plane` pre-shared-key
    /// HMAC challenge/response handshake after `Hello`, and no frame
    /// item is accepted from — or sent to — a peer that has not proven
    /// key possession. `None` (the default) keeps the trusted-LAN
    /// behaviour: links are live as soon as `Hello` checks out.
    pub auth: Option<AuthKey>,
    /// How long an accepted connection may sit without completing its
    /// `Hello` (and, with [`NetConfig::auth`] set, its auth handshake)
    /// before the node reclaims the slot and counts a
    /// `net.handshake_timeouts`. Bounds the damage of peers that
    /// connect and go silent — with or without authentication.
    pub handshake_timeout: Duration,
}

impl NetConfig {
    /// Defaults around a given DGC configuration.
    pub fn new(dgc: DgcConfig) -> Self {
        NetConfig {
            dgc,
            egress: FlushPolicy::default(),
            reconnect_base: Duration::from_millis(10),
            reconnect_max: Duration::from_secs(1),
            fail_after_attempts: 20,
            membership: None,
            trace: TraceLevel::Off,
            sweep_shards: std::env::var("DGC_SWEEP_SHARDS")
                .ok()
                .and_then(|v| v.parse().ok())
                .filter(|&n| n >= 1)
                .unwrap_or(1),
            max_link_pending: 100_000,
            auth: None,
            handshake_timeout: Duration::from_secs(2),
        }
    }

    /// Requires the `dgc-plane` link-authentication handshake with
    /// `key` on every link.
    pub fn auth(mut self, key: AuthKey) -> Self {
        self.auth = Some(key);
        self
    }

    /// Bounds how long a connection may idle mid-handshake.
    pub fn handshake_timeout(mut self, timeout: Duration) -> Self {
        self.handshake_timeout = timeout.max(Duration::from_millis(1));
        self
    }

    /// Caps per-link queued items before backpressure shedding.
    pub fn max_link_pending(mut self, max: usize) -> Self {
        self.max_link_pending = max.max(1);
        self
    }

    /// Sets the TTB sweep fan-out (overriding `DGC_SWEEP_SHARDS`).
    pub fn sweep_shards(mut self, shards: usize) -> Self {
        self.sweep_shards = shards.max(1);
        self
    }

    /// Enables the membership layer with `m` timings.
    pub fn membership(mut self, m: MembershipConfig) -> Self {
        self.membership = Some(m);
        self
    }

    /// Sets the egress flush policy.
    pub fn egress(mut self, policy: FlushPolicy) -> Self {
        self.egress = policy;
        self
    }

    /// Sets the tracing filter level (off by default).
    pub fn trace(mut self, level: TraceLevel) -> Self {
        self.trace = level;
        self
    }
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig::new(DgcConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgc_core::units::Dur;

    #[test]
    fn defaults_batch_through_the_egress_plane() {
        let c = NetConfig::default();
        assert!(!c.egress.is_immediate());
        assert!(c.egress.flush_on_app);
        assert!(c.egress.max_delay >= Dur::from_nanos(100_000));
        assert!(c.fail_after_attempts > 0);
        assert!(c.max_link_pending > 0);
        assert_eq!(c.max_link_pending(0).max_link_pending, 1);
        assert!(c.auth.is_none());
        assert!(c.handshake_timeout > Duration::ZERO);
    }

    #[test]
    fn auth_knobs() {
        let key = AuthKey::from_secret("swordfish");
        let c = NetConfig::default()
            .auth(key)
            .handshake_timeout(Duration::ZERO);
        assert_eq!(c.auth, Some(key));
        // Zero would make every handshake instantly late; clamped.
        assert_eq!(c.handshake_timeout, Duration::from_millis(1));
    }
}
