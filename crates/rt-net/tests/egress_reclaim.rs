//! Regression tests for the egress plane's reclamation paths.
//!
//! PR-5 bugfixes: (1) `Outbox` had no `remove` path, so a Dead/Left
//! peer's queue — items, bytes and flush deadline — leaked for the
//! node's lifetime; (2) an app request whose forward link had gone
//! *terminal* silently vanished with it, even when the peer's reply
//! socket was alive.

use std::time::{Duration, Instant};

use dgc_core::config::DgcConfig;
use dgc_core::egress::FlushPolicy;
use dgc_core::id::AoId;
use dgc_core::units::Dur;
use dgc_membership::MembershipConfig;
use dgc_rt_net::{Cluster, NetConfig, NetNode};

fn dgc() -> DgcConfig {
    DgcConfig::builder()
        .ttb(Dur::from_millis(25))
        .tta(Dur::from_millis(80))
        .max_comm(Dur::from_millis(20))
        .build()
}

fn poll_until(deadline: Duration, check: impl Fn() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if check() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    check()
}

/// A `127.0.0.1` port with nobody listening behind it (bound once,
/// dropped immediately): connects fail fast and deterministically.
fn dead_addr() -> std::net::SocketAddr {
    std::net::TcpListener::bind(("127.0.0.1", 0))
        .unwrap()
        .local_addr()
        .unwrap()
}

#[test]
fn dead_peer_queue_is_reclaimed_with_its_deadline() {
    // The leak regression, on the membership path: heartbeats toward a
    // peer linger in the outbox under a 10 s background delay; when the
    // peer departs (graceful leave -> `Left` verdict, the same handling
    // as `Dead` minus the suspicion wait), the queue, its bytes and its
    // wakeup deadline must all be reclaimed — and the queued DGC units
    // must surface as send failures, not sit against a corpse forever.
    let lingering = FlushPolicy {
        flush_on_app: true,
        max_delay: Dur::from_secs(10),
        max_bytes: u64::MAX,
        max_items: usize::MAX,
    };
    let membership = MembershipConfig {
        gossip_interval: Dur::from_millis(50),
        suspect_after: Dur::from_secs(30),
        dead_after: Dur::from_secs(60),
        full_sync_every: 4,
    };
    let config = NetConfig::new(dgc())
        .egress(lingering)
        .membership(membership);
    let cluster = Cluster::join_local(2, config).unwrap();

    // Bootstrap under a 10 s linger: gossip only travels by riding app
    // flushes, so pump app traffic 0 -> 1 until both directories
    // converge (which is itself the piggyback plane working).
    let pump_from = cluster.add_activity(0);
    let pump_to = cluster.add_activity(1);
    assert!(
        cluster.wait_membership_until(0, Duration::from_secs(5), |r| r.len() == 2),
        "seed must learn the joiner from its probe"
    );
    let converged = poll_until(Duration::from_secs(10), || {
        cluster.send_app(pump_from, pump_to, false, vec![0xAA]);
        cluster
            .member_records(1)
            .is_some_and(|r| r.len() == 2 && r.iter().all(|rec| rec.addr.is_some()))
    });
    assert!(
        converged,
        "app-carried gossip must converge the directories"
    );

    // Phase 2: stop the app pump; heartbeats toward node 1 now have no
    // ride and accumulate against the 10 s deadline.
    let holder = cluster.add_activity(0); // stays busy
    let target = cluster.add_activity(1);
    cluster.add_ref(holder, target);
    assert!(
        poll_until(Duration::from_secs(5), || {
            cluster
                .egress_pending(0)
                .is_some_and(|p| p.items > 0 && p.bytes > 0 && p.next_deadline.is_some())
        }),
        "heartbeats should be queued for the peer: {:?}",
        cluster.egress_pending(0)
    );
    let failures_before = cluster.stats()[0].send_failures;

    // The peer departs gracefully; node 0 gets the `Left` verdict. The
    // emptiness must come from an *answered* snapshot (`Some`), so a
    // wedged event loop can never make this pass vacuously.
    cluster.leave_node(1);
    assert!(
        poll_until(Duration::from_secs(10), || {
            cluster
                .egress_pending(0)
                .is_some_and(|p| p.items == 0 && p.bytes == 0 && p.next_deadline.is_none())
        }),
        "departed peer's queue, bytes and wakeup must be reclaimed: {:?}",
        cluster.egress_pending(0)
    );
    assert!(
        cluster.stats()[0].send_failures > failures_before,
        "the reclaimed heartbeats must surface as send failures"
    );
    cluster.shutdown();
}

#[test]
fn terminal_conviction_reclaims_queue_and_fails_app_units() {
    // The no-membership twin: a peer registered at a dead address burns
    // through fail_after_attempts; the terminal verdict must reclaim
    // the egress queue and hand the stranded *app* unit back through
    // the send-failure surface instead of dropping it on the floor.
    let lingering = FlushPolicy {
        flush_on_app: false, // so the app unit lingers alongside the heartbeats
        max_delay: Dur::from_millis(100),
        max_bytes: u64::MAX,
        max_items: usize::MAX,
    };
    let config = NetConfig {
        fail_after_attempts: 2,
        ..NetConfig::new(dgc()).egress(lingering)
    };
    let node = NetNode::bind(0, config).unwrap();
    node.add_peer(1, dead_addr());
    let holder = node.add_activity();
    let remote = AoId::new(1, 0);
    node.add_ref(holder, remote);
    node.send_app(holder, remote, false, b"stranded".to_vec());
    assert!(
        poll_until(Duration::from_secs(10), || {
            node.app_send_failures()
                .iter()
                .any(|f| f.payload == b"stranded" && f.to == remote)
        }),
        "queued app unit must surface as a send failure: {:?}",
        node.app_send_failures()
    );
    assert!(
        poll_until(Duration::from_secs(10), || {
            node.egress_pending()
                .is_some_and(|p| p.items == 0 && p.next_deadline.is_none())
        }),
        "terminal conviction must reclaim the egress queue: {:?}",
        node.egress_pending()
    );
    assert!(node.stats().send_failures > 0);
    node.shutdown();
}

#[test]
fn stranded_request_falls_back_to_the_live_reply_socket() {
    // Severed forward link + live reply socket: node 1 can reach node 0
    // (and did — that socket carries node 0's replies), but node 0's
    // *forward* address for node 1 points at a dead port. Requests
    // node 0 -> node 1 must not die with the convicted link: they fall
    // back to the reply path and arrive.
    let config = NetConfig {
        fail_after_attempts: 2,
        reconnect_base: Duration::from_millis(5),
        ..NetConfig::new(dgc())
    };
    let node0 = NetNode::bind(0, config).unwrap();
    let node1 = NetNode::bind(1, config).unwrap();
    let a0 = node0.add_activity();
    let a1 = node1.add_activity();

    // Node 1 opens the only real connection: its requests give node 0 a
    // reply path back over that same socket.
    node1.add_peer(0, node0.addr());
    node1.send_app(a1, a0, false, b"hello".to_vec());
    assert!(
        poll_until(Duration::from_secs(5), || !node0.app_received().is_empty()),
        "node 1's request must establish the reply path"
    );

    // Node 0's forward route to node 1 is severed (dead port).
    node0.add_peer(1, dead_addr());
    node0.send_app(a0, a1, false, b"first".to_vec());
    assert!(
        poll_until(Duration::from_secs(10), || {
            node1.app_received().iter().any(|r| r.payload == b"first")
        }),
        "request must fall back to the live reply socket: got {:?}, failures {:?}",
        node1.app_received(),
        node0.app_send_failures()
    );
    // And a request sent *after* the conviction (the link is gone)
    // takes the same fallback instead of vanishing.
    node0.send_app(a0, a1, false, b"second".to_vec());
    assert!(
        poll_until(Duration::from_secs(10), || {
            node1.app_received().iter().any(|r| r.payload == b"second")
        }),
        "post-terminal request must not vanish with the dead link: got {:?}",
        node1.app_received()
    );
    node0.shutdown();
    node1.shutdown();
}
