//! Transport counters: what actually went over the wire.
//!
//! The paper's fig. 8 argument is about bytes on the network, so the
//! socket runtime meters itself the same way the simulator does — every
//! frame and every protocol unit is counted at the moment it is written
//! to or read from a socket.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dgc_obs::{Counter, Histogram, Registry};

/// Cached telemetry-plane handles mirroring every [`NetStats`] counter
/// under `net.*` in the node's [`Registry`], plus the reconnect-backoff
/// histogram only the registry carries. The legacy counters keep
/// counting; the mirror is what merges fleet-wide and what the
/// conservation test cross-checks against a snapshot.
#[derive(Debug, Clone)]
struct NetObs {
    frames_sent: Counter,
    bytes_sent: Counter,
    items_sent: Counter,
    frames_received: Counter,
    bytes_received: Counter,
    items_received: Counter,
    reconnects: Counter,
    send_failures: Counter,
    decode_errors: Counter,
    piggybacked: Counter,
    accept_errors: Counter,
    auth_ok: Counter,
    auth_rejects: Counter,
    handshake_timeouts: Counter,
    reconnect_backoff: Histogram,
}

impl NetObs {
    fn new(registry: &Registry) -> NetObs {
        NetObs {
            frames_sent: registry.counter("net.frames_sent"),
            bytes_sent: registry.counter("net.bytes_sent"),
            items_sent: registry.counter("net.items_sent"),
            frames_received: registry.counter("net.frames_received"),
            bytes_received: registry.counter("net.bytes_received"),
            items_received: registry.counter("net.items_received"),
            reconnects: registry.counter("net.reconnects"),
            send_failures: registry.counter("net.send_failures"),
            decode_errors: registry.counter("net.decode_errors"),
            piggybacked: registry.counter("net.piggybacked"),
            accept_errors: registry.counter("net.accept_errors"),
            auth_ok: registry.counter("net.auth_ok"),
            auth_rejects: registry.counter("net.auth_rejects"),
            handshake_timeouts: registry.counter("net.handshake_timeouts"),
            reconnect_backoff: registry.histogram("net.reconnect_backoff_ns"),
        }
    }
}

/// Monotonic transport counters, shared between a node's link threads
/// and its driver. All methods are lock-free.
#[derive(Debug, Default)]
pub struct NetStats {
    frames_sent: AtomicU64,
    bytes_sent: AtomicU64,
    items_sent: AtomicU64,
    frames_received: AtomicU64,
    bytes_received: AtomicU64,
    items_received: AtomicU64,
    reconnects: AtomicU64,
    send_failures: AtomicU64,
    decode_errors: AtomicU64,
    piggybacked: AtomicU64,
    accept_errors: AtomicU64,
    auth_ok: AtomicU64,
    auth_rejects: AtomicU64,
    handshake_timeouts: AtomicU64,
    obs: Option<NetObs>,
}

/// Point-in-time copy of a [`NetStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStatsSnapshot {
    /// Frames written to sockets.
    pub frames_sent: u64,
    /// Bytes written to sockets (length prefixes included).
    pub bytes_sent: u64,
    /// Protocol units carried by those frames.
    pub items_sent: u64,
    /// Frames read from sockets.
    pub frames_received: u64,
    /// Bytes read from sockets.
    pub bytes_received: u64,
    /// Protocol units carried by received frames.
    pub items_received: u64,
    /// Times an outbound link re-established its connection.
    pub reconnects: u64,
    /// Items abandoned because a peer stayed unreachable (queued DGC
    /// messages additionally notify the local protocol, which drops the
    /// dead edges).
    pub send_failures: u64,
    /// Inbound traffic rejected as corrupt or misaddressed.
    pub decode_errors: u64,
    /// Background units (heartbeats, gossip digests, control) that
    /// rode an application-send flush — frames they did not pay for
    /// (the egress plane's piggyback win).
    pub piggybacked: u64,
    /// Transient `accept()` failures (fd exhaustion and friends) the
    /// listener survived by backing off instead of going deaf.
    pub accept_errors: u64,
    /// Links that completed the `dgc-plane` auth handshake.
    pub auth_ok: u64,
    /// Links dropped for failing it: bad MAC, out-of-order handshake,
    /// or a batch item attempted before authentication.
    pub auth_rejects: u64,
    /// Connections reclaimed for idling mid-handshake past
    /// [`crate::NetConfig::handshake_timeout`].
    pub handshake_timeouts: u64,
}

impl NetStatsSnapshot {
    /// Mean protocol units per sent frame — the batching factor the
    /// `net_batching` bench tracks (1.0 means no batching benefit).
    pub fn items_per_frame(&self) -> f64 {
        if self.frames_sent == 0 {
            0.0
        } else {
            self.items_sent as f64 / self.frames_sent as f64
        }
    }

    /// Adds every counter of `other` into `self` — the fleet-wide fold
    /// behind [`crate::Cluster::total_stats`]. Destructures both
    /// snapshots exhaustively, so adding a counter without folding it
    /// is a compile error, not a silently dropped stat.
    pub fn merge(&mut self, other: &NetStatsSnapshot) {
        let NetStatsSnapshot {
            frames_sent,
            bytes_sent,
            items_sent,
            frames_received,
            bytes_received,
            items_received,
            reconnects,
            send_failures,
            decode_errors,
            piggybacked,
            accept_errors,
            auth_ok,
            auth_rejects,
            handshake_timeouts,
        } = *other;
        self.frames_sent += frames_sent;
        self.bytes_sent += bytes_sent;
        self.items_sent += items_sent;
        self.frames_received += frames_received;
        self.bytes_received += bytes_received;
        self.items_received += items_received;
        self.reconnects += reconnects;
        self.send_failures += send_failures;
        self.decode_errors += decode_errors;
        self.piggybacked += piggybacked;
        self.accept_errors += accept_errors;
        self.auth_ok += auth_ok;
        self.auth_rejects += auth_rejects;
        self.handshake_timeouts += handshake_timeouts;
    }

    /// Every counter as `(registry key, value)` pairs, keyed exactly as
    /// the `net.*` telemetry mirror registers them. Exhaustive by
    /// construction (destructuring), so the obs-conservation test can
    /// cross-check snapshot ↔ registry in both directions and a new
    /// field can never dodge the mirror unnoticed.
    pub fn named_counters(&self) -> Vec<(&'static str, u64)> {
        let NetStatsSnapshot {
            frames_sent,
            bytes_sent,
            items_sent,
            frames_received,
            bytes_received,
            items_received,
            reconnects,
            send_failures,
            decode_errors,
            piggybacked,
            accept_errors,
            auth_ok,
            auth_rejects,
            handshake_timeouts,
        } = *self;
        vec![
            ("net.frames_sent", frames_sent),
            ("net.bytes_sent", bytes_sent),
            ("net.items_sent", items_sent),
            ("net.frames_received", frames_received),
            ("net.bytes_received", bytes_received),
            ("net.items_received", items_received),
            ("net.reconnects", reconnects),
            ("net.send_failures", send_failures),
            ("net.decode_errors", decode_errors),
            ("net.piggybacked", piggybacked),
            ("net.accept_errors", accept_errors),
            ("net.auth_ok", auth_ok),
            ("net.auth_rejects", auth_rejects),
            ("net.handshake_timeouts", handshake_timeouts),
        ]
    }
}

impl NetStats {
    /// Fresh zeroed counters behind an [`Arc`].
    pub fn shared() -> Arc<NetStats> {
        Arc::new(NetStats::default())
    }

    /// Fresh counters that additionally mirror every increment into
    /// `registry` under `net.*` (one extra relaxed atomic per event).
    pub fn shared_with_obs(registry: &Registry) -> Arc<NetStats> {
        Arc::new(NetStats {
            obs: Some(NetObs::new(registry)),
            ..NetStats::default()
        })
    }

    /// Records one written frame carrying `items` units in `bytes` bytes.
    pub fn on_frame_sent(&self, items: u64, bytes: u64) {
        self.frames_sent.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(bytes, Ordering::Relaxed);
        self.items_sent.fetch_add(items, Ordering::Relaxed);
        if let Some(obs) = &self.obs {
            obs.frames_sent.incr();
            obs.bytes_sent.add(bytes);
            obs.items_sent.add(items);
        }
    }

    /// Records one read frame carrying `items` units.
    pub fn on_frame_received(&self, items: u64) {
        self.frames_received.fetch_add(1, Ordering::Relaxed);
        self.items_received.fetch_add(items, Ordering::Relaxed);
        if let Some(obs) = &self.obs {
            obs.frames_received.incr();
            obs.items_received.add(items);
        }
    }

    /// Records raw bytes read off a socket (counted per `read`, so it
    /// covers partial frames too).
    pub fn on_raw_received(&self, bytes: u64) {
        self.bytes_received.fetch_add(bytes, Ordering::Relaxed);
        if let Some(obs) = &self.obs {
            obs.bytes_received.add(bytes);
        }
    }

    /// Records an outbound link reconnect.
    pub fn on_reconnect(&self) {
        self.reconnects.fetch_add(1, Ordering::Relaxed);
        if let Some(obs) = &self.obs {
            obs.reconnects.incr();
        }
    }

    /// Records one served reconnect-backoff wait (registry-only: the
    /// histogram has no legacy twin).
    pub fn on_backoff(&self, nanos: u64) {
        if let Some(obs) = &self.obs {
            obs.reconnect_backoff.record(nanos);
        }
    }

    /// Records `n` items surfaced as send failures.
    pub fn on_send_failures(&self, n: u64) {
        self.send_failures.fetch_add(n, Ordering::Relaxed);
        if let Some(obs) = &self.obs {
            obs.send_failures.add(n);
        }
    }

    /// Records a corrupt inbound frame.
    pub fn on_decode_error(&self) {
        self.decode_errors.fetch_add(1, Ordering::Relaxed);
        if let Some(obs) = &self.obs {
            obs.decode_errors.incr();
        }
    }

    /// Records `n` background units piggybacking on an app-send flush.
    pub fn on_piggybacked(&self, n: u64) {
        self.piggybacked.fetch_add(n, Ordering::Relaxed);
        if let Some(obs) = &self.obs {
            obs.piggybacked.add(n);
        }
    }

    /// Records a transient `accept()` failure that triggered backoff.
    pub fn on_accept_error(&self) {
        self.accept_errors.fetch_add(1, Ordering::Relaxed);
        if let Some(obs) = &self.obs {
            obs.accept_errors.incr();
        }
    }

    /// Records a link that completed the auth handshake.
    pub fn on_auth_ok(&self) {
        self.auth_ok.fetch_add(1, Ordering::Relaxed);
        if let Some(obs) = &self.obs {
            obs.auth_ok.incr();
        }
    }

    /// Records a link dropped for failing authentication.
    pub fn on_auth_reject(&self) {
        self.auth_rejects.fetch_add(1, Ordering::Relaxed);
        if let Some(obs) = &self.obs {
            obs.auth_rejects.incr();
        }
    }

    /// Records a connection reclaimed for idling mid-handshake.
    pub fn on_handshake_timeout(&self) {
        self.handshake_timeouts.fetch_add(1, Ordering::Relaxed);
        if let Some(obs) = &self.obs {
            obs.handshake_timeouts.incr();
        }
    }

    /// Consistent-enough copy for reporting.
    pub fn snapshot(&self) -> NetStatsSnapshot {
        NetStatsSnapshot {
            frames_sent: self.frames_sent.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            items_sent: self.items_sent.load(Ordering::Relaxed),
            frames_received: self.frames_received.load(Ordering::Relaxed),
            bytes_received: self.bytes_received.load(Ordering::Relaxed),
            items_received: self.items_received.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            send_failures: self.send_failures.load(Ordering::Relaxed),
            decode_errors: self.decode_errors.load(Ordering::Relaxed),
            piggybacked: self.piggybacked.load(Ordering::Relaxed),
            accept_errors: self.accept_errors.load(Ordering::Relaxed),
            auth_ok: self.auth_ok.load(Ordering::Relaxed),
            auth_rejects: self.auth_rejects.load(Ordering::Relaxed),
            handshake_timeouts: self.handshake_timeouts.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = NetStats::shared();
        s.on_frame_sent(3, 100);
        s.on_frame_sent(1, 20);
        s.on_frame_received(2);
        s.on_raw_received(64);
        s.on_reconnect();
        s.on_send_failures(2);
        let snap = s.snapshot();
        assert_eq!(snap.frames_sent, 2);
        assert_eq!(snap.bytes_sent, 120);
        assert_eq!(snap.items_sent, 4);
        assert_eq!(snap.items_per_frame(), 2.0);
        assert_eq!(snap.frames_received, 1);
        assert_eq!(snap.bytes_received, 64);
        assert_eq!(snap.reconnects, 1);
        assert_eq!(snap.send_failures, 2);
    }

    #[test]
    fn empty_snapshot_has_no_batching_factor() {
        assert_eq!(NetStatsSnapshot::default().items_per_frame(), 0.0);
    }

    #[test]
    fn obs_mirror_conserves_every_counter() {
        let r = Registry::default();
        let s = NetStats::shared_with_obs(&r);
        s.on_frame_sent(3, 100);
        s.on_frame_sent(1, 20);
        s.on_frame_received(2);
        s.on_raw_received(64);
        s.on_reconnect();
        s.on_send_failures(2);
        s.on_decode_error();
        s.on_piggybacked(5);
        s.on_accept_error();
        s.on_auth_ok();
        s.on_auth_reject();
        s.on_handshake_timeout();
        s.on_backoff(1_000_000);
        let snap = s.snapshot();
        let o = r.snapshot();
        for (key, value) in snap.named_counters() {
            assert_eq!(o.counter(key), value, "mirror diverged for {key}");
        }
        assert!(snap.named_counters().iter().any(|&(_, v)| v > 0));
        assert_eq!(o.histogram("net.reconnect_backoff_ns").count, 1);
    }

    #[test]
    fn merge_folds_every_field() {
        let a = NetStats::shared();
        a.on_frame_sent(3, 100);
        a.on_accept_error();
        let b = NetStats::shared();
        b.on_frame_received(2);
        b.on_raw_received(64);
        b.on_reconnect();
        b.on_send_failures(2);
        b.on_decode_error();
        b.on_piggybacked(5);
        b.on_auth_ok();
        b.on_auth_reject();
        b.on_handshake_timeout();
        let mut total = a.snapshot();
        total.merge(&b.snapshot());
        for ((key, folded), ((_, va), (_, vb))) in total.named_counters().iter().zip(
            a.snapshot()
                .named_counters()
                .into_iter()
                .zip(b.snapshot().named_counters()),
        ) {
            assert_eq!(*folded, va + vb, "fold lost {key}");
        }
    }

    #[test]
    fn plain_stats_skip_backoff_histogram() {
        let s = NetStats::shared();
        s.on_backoff(500); // no registry attached: a quiet no-op
        assert_eq!(s.snapshot(), NetStatsSnapshot::default());
    }
}
