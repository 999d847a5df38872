//! Transport counters: what actually went over the wire.
//!
//! The paper's fig. 8 argument is about bytes on the network, so the
//! socket runtime meters itself the same way the simulator does — every
//! frame and every protocol unit is counted at the moment it is written
//! to or read from a socket.

use std::sync::Arc;

use dgc_obs::{Counter, Histogram, Registry};

/// Monotonic transport counters, shared between a node's readiness
/// loop and its driver. Each field is a handle to a `net.*` metric in
/// the node's [`Registry`] — the registry is the only store, so what
/// [`NetStats::snapshot`] reads is what merges fleet-wide. All methods
/// are lock-free.
#[derive(Debug)]
pub struct NetStats {
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
    /// Mean protocol units per sent frame — the batching factor (1.0
    /// means no batching benefit).
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
}

impl NetStats {
    /// Counters registered under `net.*` in `registry`, behind an
    /// [`Arc`].
    pub fn shared(registry: &Registry) -> Arc<NetStats> {
        Arc::new(NetStats {
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
        })
    }

    /// Records one written frame carrying `items` units in `bytes` bytes.
    pub fn on_frame_sent(&self, items: u64, bytes: u64) {
        self.frames_sent.incr();
        self.bytes_sent.add(bytes);
        self.items_sent.add(items);
    }

    /// Records one read frame carrying `items` units.
    pub fn on_frame_received(&self, items: u64) {
        self.frames_received.incr();
        self.items_received.add(items);
    }

    /// Records raw bytes read off a socket (counted per `read`, so it
    /// covers partial frames too).
    pub fn on_raw_received(&self, bytes: u64) {
        self.bytes_received.add(bytes);
    }

    /// Records an outbound link reconnect.
    pub fn on_reconnect(&self) {
        self.reconnects.incr();
    }

    /// Records one served reconnect-backoff wait.
    pub fn on_backoff(&self, nanos: u64) {
        self.reconnect_backoff.record(nanos);
    }

    /// Records `n` items surfaced as send failures.
    pub fn on_send_failures(&self, n: u64) {
        self.send_failures.add(n);
    }

    /// Records a corrupt inbound frame.
    pub fn on_decode_error(&self) {
        self.decode_errors.incr();
    }

    /// Records `n` background units piggybacking on an app-send flush.
    pub fn on_piggybacked(&self, n: u64) {
        self.piggybacked.add(n);
    }

    /// Records a transient `accept()` failure that triggered backoff.
    pub fn on_accept_error(&self) {
        self.accept_errors.incr();
    }

    /// Records a link that completed the auth handshake.
    pub fn on_auth_ok(&self) {
        self.auth_ok.incr();
    }

    /// Records a link dropped for failing authentication.
    pub fn on_auth_reject(&self) {
        self.auth_rejects.incr();
    }

    /// Records a connection reclaimed for idling mid-handshake.
    pub fn on_handshake_timeout(&self) {
        self.handshake_timeouts.incr();
    }

    /// Consistent-enough copy for reporting.
    pub fn snapshot(&self) -> NetStatsSnapshot {
        NetStatsSnapshot {
            frames_sent: self.frames_sent.get(),
            bytes_sent: self.bytes_sent.get(),
            items_sent: self.items_sent.get(),
            frames_received: self.frames_received.get(),
            bytes_received: self.bytes_received.get(),
            items_received: self.items_received.get(),
            reconnects: self.reconnects.get(),
            send_failures: self.send_failures.get(),
            decode_errors: self.decode_errors.get(),
            piggybacked: self.piggybacked.get(),
            accept_errors: self.accept_errors.get(),
            auth_ok: self.auth_ok.get(),
            auth_rejects: self.auth_rejects.get(),
            handshake_timeouts: self.handshake_timeouts.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = NetStats::shared(&Registry::default());
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

    /// Moves every counter (and the histogram) by a distinct amount.
    fn drive_every_counter(s: &NetStats) {
        s.on_frame_sent(3, 100);
        s.on_frame_received(2);
        s.on_raw_received(64);
        s.on_reconnect();
        s.on_send_failures(6);
        s.on_decode_error();
        s.on_piggybacked(5);
        s.on_accept_error();
        s.on_auth_ok();
        s.on_auth_reject();
        s.on_handshake_timeout();
        s.on_backoff(1_000_000);
    }

    /// The `net.*` names are an external contract (fleet merges, the
    /// benchmark's ledger): each typed field reads the key spelled here.
    #[test]
    fn every_field_reads_its_registry_key() {
        let r = Registry::default();
        let s = NetStats::shared(&r);
        drive_every_counter(&s);
        let snap = s.snapshot();
        let o = r.snapshot();
        let keyed = [
            ("net.frames_sent", snap.frames_sent),
            ("net.bytes_sent", snap.bytes_sent),
            ("net.items_sent", snap.items_sent),
            ("net.frames_received", snap.frames_received),
            ("net.bytes_received", snap.bytes_received),
            ("net.items_received", snap.items_received),
            ("net.reconnects", snap.reconnects),
            ("net.send_failures", snap.send_failures),
            ("net.decode_errors", snap.decode_errors),
            ("net.piggybacked", snap.piggybacked),
            ("net.accept_errors", snap.accept_errors),
            ("net.auth_ok", snap.auth_ok),
            ("net.auth_rejects", snap.auth_rejects),
            ("net.handshake_timeouts", snap.handshake_timeouts),
        ];
        for (key, field) in keyed {
            assert!(field > 0, "{key} was never driven");
            assert_eq!(o.counter(key), field, "{key} is not the field's store");
        }
        assert_eq!(o.counters.len(), keyed.len(), "unpinned key: {o:?}");
        assert_eq!(o.histogram("net.reconnect_backoff_ns").count, 1);
    }

    #[test]
    fn merge_folds_every_field() {
        // Every field is non-zero after one drive (the test above), so
        // a field `merge` dropped would stay at `once` and differ.
        let s = NetStats::shared(&Registry::default());
        drive_every_counter(&s);
        let once = s.snapshot();
        drive_every_counter(&s);
        let mut folded = once;
        folded.merge(&once);
        assert_eq!(folded, s.snapshot());
    }
}
