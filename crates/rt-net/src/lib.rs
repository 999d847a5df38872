//! # dgc-rt-net — real TCP transport runtime for the DGC core
//!
//! The simulator (`dgc-activeobj`) proves the protocol at grid scale in
//! virtual time; the threaded runtime (`dgc-rt-thread`) proves it under
//! real concurrency. This crate makes the protocol actually cross a
//! **network**: every node (address space) is a process-shaped runtime
//! listening on a TCP socket, hosting many activities, and exchanging
//! DGC messages/responses with peer nodes as length-prefixed binary
//! frames built from [`dgc_core::wire`]'s varint primitives, each frame
//! stating a field once however many of its items share it.
//!
//! What the transport adds over a channel runtime:
//!
//! * [`frame`] — node-level envelopes (hello, activity-addressed
//!   message/response, send-failure notification), context-compressed
//!   within a frame and independent across frames, with an incremental
//!   [`frame::FrameDecoder`] for arbitrary TCP fragmentation;
//! * [`node`] — the per-node event loop, one OS thread that owns the
//!   hosted collectors *and* every socket (listener, dialed links,
//!   accepted connections) on a single readiness loop; it dials with
//!   exponential-backoff reconnects, convicts a peer after
//!   `fail_after_attempts`, bounds per-link buffering, and sends
//!   responses back over the socket the referencer's node opened,
//!   preserving the paper's firewall/NAT story (§2.2). The loop owns
//!   the node's **egress plane**
//!   ([`dgc_core::egress::Outbox`]): every outgoing unit — TTB
//!   heartbeat, gossip digest, control, or an [`Item::App`] payload
//!   sent via [`NetNode::send_app`] — queues per destination, and the
//!   flush policy ([`NetConfig::egress`]) coalesces them into shared
//!   frames: an app send flushes immediately with the queue
//!   piggybacking (a heartbeat to a peer we're already talking to
//!   costs ~0 extra frames), background units linger at most
//!   `max_delay` — attacking the fig. 8 bandwidth cost at scale;
//! * [`cluster`] — a localhost N-node driver with the same surface as
//!   `ThreadGrid`, used by `tests/net.rs` to collect a cross-node cycle
//!   end-to-end over real sockets;
//! * membership — with [`NetConfig::membership`] set, every node runs
//!   a `dgc-membership` gossip engine: digests ride as one more item
//!   kind inside the same batched frames ([`frame::GOSSIP_ANYCAST`]
//!   marks a join probe), [`NetNode::join`] bootstraps from seed
//!   addresses instead of static registration, peers' listen addresses
//!   are learned (and re-learned after a crash-rejoin) from gossip,
//!   and a **dead** verdict feeds every hosted collector's
//!   send-failure path; [`Cluster::join_local`] /
//!   [`Cluster::join_local_churn`] drive whole churn scenarios;
//! * [`chaos`] — a per-link fault-injecting proxy replaying the
//!   runtime-neutral [`dgc_core::faults::FaultProfile`] descriptions
//!   (delay / drop / sever / reorder) over live connections, plus the
//!   [`node::Event::Pause`] stop-the-world hook — together the socket
//!   realization of the same scenarios the simulator replays, which is
//!   what the `dgc-conformance` harness compares.
//!
//! Implementation note: the container this repository builds in has no
//! crates.io access, so the runtime is written against `std::net`:
//! every socket of a node sits nonblocking on one readiness loop over
//! a vendored [`polling::Poller`] (epoll on Linux; a portable
//! short-timeout emulation elsewhere, or anywhere with
//! `DGC_POLL_EMULATION=1`), so a node is one thread however many peers
//! it talks to. The module boundaries (frame codec / link layer /
//! event loop) are the seams a tokio port would slot into.
//!
//! ## Example: a cross-node cycle over real sockets
//!
//! ```no_run
//! use std::time::Duration;
//! use dgc_core::config::DgcConfig;
//! use dgc_core::units::Dur;
//! use dgc_rt_net::{Cluster, NetConfig};
//!
//! let dgc = DgcConfig::builder()
//!     .ttb(Dur::from_millis(25))
//!     .tta(Dur::from_millis(80))
//!     .max_comm(Dur::from_millis(20))
//!     .build();
//! let cluster = Cluster::listen_local(2, NetConfig::new(dgc)).unwrap();
//! let a = cluster.add_activity(0);
//! let b = cluster.add_activity(1);
//! cluster.add_ref(a, b);
//! cluster.add_ref(b, a); // a ⇄ b across two TCP nodes
//! cluster.set_idle(a, true);
//! cluster.set_idle(b, true);
//! assert!(cluster.wait_until(Duration::from_secs(10), |t| t.len() == 2));
//! cluster.shutdown();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chaos;
pub mod cluster;
pub mod config;
pub mod frame;
pub mod node;
mod reactor;
pub mod stats;

pub use chaos::{ChaosProxy, ChaosStatsSnapshot};
pub use cluster::Cluster;
pub use config::NetConfig;
pub use dgc_plane::{
    AuthKey, Envelope, Middleware, MiddlewareCtx, Pipeline, TenantCounters, TenantId, TenantLedger,
    TenantMap, Verdict,
};
pub use frame::{Frame, FrameDecoder, Item, GOSSIP_ANYCAST};
pub use node::{AppHandler, AppReceived, AppSend, EgressPending, NetNode, Terminated};
pub use stats::{NetStats, NetStatsSnapshot};

#[cfg(test)]
mod tests {
    use super::*;
    use dgc_core::config::DgcConfig;
    use dgc_core::message::TerminateReason;
    use dgc_core::units::Dur;
    use std::time::Duration;

    fn cfg() -> NetConfig {
        NetConfig::new(
            DgcConfig::builder()
                .ttb(Dur::from_millis(25))
                .tta(Dur::from_millis(80))
                .max_comm(Dur::from_millis(20))
                .build(),
        )
    }

    #[test]
    fn lone_idle_activity_is_collected() {
        let cluster = Cluster::listen_local(2, cfg()).unwrap();
        let a = cluster.add_activity(0);
        cluster.set_idle(a, true);
        assert!(
            cluster.wait_until(Duration::from_secs(5), |t| t.iter().any(|x| x.ao == a)),
            "acyclic collection over sockets"
        );
        assert_eq!(cluster.terminated()[0].reason, TerminateReason::Acyclic);
        cluster.shutdown();
    }

    #[test]
    fn referenced_activity_stays_alive() {
        let cluster = Cluster::listen_local(2, cfg()).unwrap();
        let root = cluster.add_activity(0); // stays busy: a root
        let b = cluster.add_activity(1);
        cluster.add_ref(root, b);
        cluster.set_idle(b, true);
        std::thread::sleep(Duration::from_millis(400));
        assert!(
            !cluster.is_terminated(b),
            "heartbeats over TCP keep the referenced activity"
        );
        cluster.shutdown();
    }

    #[test]
    fn cross_node_cycle_is_collected() {
        let cluster = Cluster::listen_local(2, cfg()).unwrap();
        let a = cluster.add_activity(0);
        let b = cluster.add_activity(1);
        cluster.add_ref(a, b);
        cluster.add_ref(b, a);
        cluster.set_idle(a, true);
        cluster.set_idle(b, true);
        assert!(
            cluster.wait_until(Duration::from_secs(20), |t| t.len() == 2),
            "cyclic collection over sockets: {:?}",
            cluster.terminated()
        );
        assert!(cluster.terminated().iter().any(|t| t.reason.is_cyclic()));
        cluster.shutdown();
    }

    #[test]
    fn unreachable_peer_surfaces_send_failures() {
        // One live node whose activity references an id on a peer that
        // is registered but never comes up: after fail_after_attempts
        // the link must convert the queued heartbeats into local send
        // failures so the referencer drops the dead edge (and, now
        // unreferenced and idle, falls acyclically).
        let config = NetConfig {
            fail_after_attempts: 2,
            ..cfg()
        };
        let node = NetNode::bind(0, config).unwrap();
        // A port from an immediately-dropped listener: nobody listens.
        let dead_addr = std::net::TcpListener::bind(("127.0.0.1", 0))
            .unwrap()
            .local_addr()
            .unwrap();
        node.add_peer(1, dead_addr);
        let holder = node.add_activity();
        node.add_ref(holder, dgc_core::id::AoId::new(1, 0));
        node.set_idle(holder, true);
        assert!(
            node.wait_until(Duration::from_secs(10), |t| t
                .iter()
                .any(|x| x.ao == holder)),
            "holder should drop the unreachable edge and fall: {:?}",
            node.terminated()
        );
        assert!(node.stats().send_failures > 0);
        node.shutdown();
    }

    #[test]
    fn heartbeats_to_one_node_batch_into_shared_frames() {
        // 8 activities on node 0 all referencing node 1: their TTB
        // sweeps are co-scheduled, so the link should pack several
        // heartbeats per frame.
        let cluster = Cluster::listen_local(2, cfg()).unwrap();
        let targets: Vec<_> = (0..4).map(|_| cluster.add_activity(1)).collect();
        for _ in 0..8 {
            let holder = cluster.add_activity(0);
            for t in &targets {
                cluster.add_ref(holder, *t);
            }
        }
        std::thread::sleep(Duration::from_millis(500));
        let sent = cluster.stats()[0];
        assert!(sent.items_sent > 0, "heartbeats flowed");
        assert!(
            sent.items_per_frame() > 2.0,
            "expected batching, got {:.2} items/frame over {} frames",
            sent.items_per_frame(),
            sent.frames_sent
        );
        cluster.shutdown();
    }
}
