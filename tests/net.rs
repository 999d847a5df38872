//! End-to-end tests of the TCP transport runtime: the paper's protocol
//! collecting real garbage over real sockets.
//!
//! The headline case is the acceptance scenario for `dgc-rt-net`: a
//! two-activity cycle `a ⇄ b` split across two nodes that only talk
//! through `127.0.0.1` TCP connections, collected end-to-end with
//! millisecond-scale TTB/TTA.

use std::time::Duration;

use grid_dgc::dgc::config::DgcConfig;
use grid_dgc::dgc::faults::{FaultProfile, Window};
use grid_dgc::dgc::message::TerminateReason;
use grid_dgc::dgc::units::Dur;
use grid_dgc::rt_net::{Cluster, NetConfig};

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
fn cross_node_cycle_is_collected_over_tcp() {
    let cluster = Cluster::listen_local(2, cfg()).expect("bind cluster");
    let a = cluster.add_activity(0);
    let b = cluster.add_activity(1);
    assert_ne!(a.node, b.node, "the cycle must actually cross nodes");
    cluster.add_ref(a, b);
    cluster.add_ref(b, a);
    cluster.set_idle(a, true);
    cluster.set_idle(b, true);

    assert!(
        cluster.wait_until(Duration::from_secs(20), |t| t.len() == 2),
        "a ⇄ b cycle over sockets not collected: {:?}",
        cluster.terminated()
    );
    let t = cluster.terminated();
    assert!(t.iter().any(|x| x.ao == a) && t.iter().any(|x| x.ao == b));
    assert!(
        t.iter().any(|x| x.reason.is_cyclic()),
        "a cycle needs the cyclic path, got {t:?}"
    );
    // All of it went over real TCP: both nodes moved protocol units.
    let stats = cluster.stats();
    assert!(stats[0].items_sent > 0 && stats[1].items_sent > 0);
    assert!(stats[0].bytes_received > 0 && stats[1].bytes_received > 0);
    assert_eq!(cluster.total_stats().decode_errors, 0);
    cluster.shutdown();
}

#[test]
fn three_node_ring_is_collected_over_tcp() {
    let cluster = Cluster::listen_local(3, cfg()).expect("bind cluster");
    let a = cluster.add_activity(0);
    let b = cluster.add_activity(1);
    let c = cluster.add_activity(2);
    cluster.add_ref(a, b);
    cluster.add_ref(b, c);
    cluster.add_ref(c, a);
    for id in [a, b, c] {
        cluster.set_idle(id, true);
    }
    assert!(
        cluster.wait_until(Duration::from_secs(30), |t| t.len() == 3),
        "three-node ring not collected: {:?}",
        cluster.terminated()
    );
    cluster.shutdown();
}

#[test]
fn busy_referencer_on_remote_node_protects_the_cycle() {
    let cluster = Cluster::listen_local(2, cfg()).expect("bind cluster");
    let a = cluster.add_activity(0);
    let b = cluster.add_activity(1);
    cluster.add_ref(a, b);
    cluster.add_ref(b, a);
    cluster.set_idle(a, true);
    // b stays busy: nothing may be collected, however long we wait
    // relative to the timers. `wait_until` polls for the *violation*,
    // so a correct run waits out the window and a buggy run fails fast
    // instead of sleeping blindly.
    assert!(
        !cluster.wait_until(Duration::from_millis(500), |t| !t.is_empty()),
        "busy member overrun: {:?}",
        cluster.terminated()
    );
    cluster.set_idle(b, true);
    assert!(cluster.wait_until(Duration::from_secs(20), |t| t.len() == 2));
    cluster.shutdown();
}

#[test]
fn acyclic_garbage_is_collected_and_roots_survive() {
    let cluster = Cluster::listen_local(2, cfg()).expect("bind cluster");
    let root = cluster.add_activity(0); // never idled: a root
    let kept = cluster.add_activity(1);
    let garbage = cluster.add_activity(1);
    cluster.add_ref(root, kept);
    cluster.set_idle(kept, true);
    cluster.set_idle(garbage, true);
    assert!(
        cluster.wait_until(Duration::from_secs(10), |t| t
            .iter()
            .any(|x| x.ao == garbage)),
        "unreferenced idle activity must fall acyclically"
    );
    assert_eq!(
        cluster
            .terminated()
            .iter()
            .find(|t| t.ao == garbage)
            .unwrap()
            .reason,
        TerminateReason::Acyclic
    );
    assert!(
        !cluster.wait_until(Duration::from_millis(300), |t| t
            .iter()
            .any(|x| x.ao == kept || x.ao == root)),
        "remote heartbeats from the busy root must keep `kept` alive: {:?}",
        cluster.terminated()
    );
    cluster.shutdown();
}

/// A farewell over sockets carries the age of its sender's last pass-on,
/// in whole microseconds rounded down. `x`'s only referencer passes `x`
/// on and drops it at once, so `x` outlives the farewell by 2·MaxComm +
/// TTB less that age: it cannot go before 65 ms after the pass-on,
/// however the threads are scheduled. Were the age lost, the farewell
/// would free `x` on receipt, a millisecond or so later.
#[test]
fn a_farewell_over_tcp_carries_its_pass_on_age() {
    let cluster = Cluster::listen_local(2, cfg()).expect("bind cluster");
    let holder = cluster.add_activity(0); // never idled: it holds `x`
    let x = cluster.add_activity(1);
    cluster.add_ref(holder, x);
    cluster.set_idle(x, true);
    // Well past x's creation guard: only the holder keeps it.
    std::thread::sleep(Duration::from_millis(200));
    assert!(!cluster.is_terminated(x), "held by its busy referencer");
    let passed = std::time::Instant::now();
    cluster.passed_on(holder, x);
    cluster.drop_ref(holder, x);
    assert!(
        cluster.wait_until(Duration::from_secs(5), |t| t.iter().any(|d| d.ao == x)),
        "x must fall once its horizon passes"
    );
    let lived = passed.elapsed();
    assert!(
        lived >= Duration::from_millis(65),
        "x went {lived:?} after the pass-on, inside 2·MaxComm + TTB"
    );
    cluster.shutdown();
}

/// The creation guard over sockets tolerates one lost unit. A chaos
/// proxy drops every frame node 0 sends node 1 in the first 200 ms, the
/// creator's eager first message to a fresh chain member among them.
/// Node 0 beats on multiples of TTB (500 ms) from its start, so the
/// creator's next beat leaves at 500 ms, after the window, and lands
/// inside the member's guard of `min(TTA, 2·MaxComm + TTB)` = 800 ms:
/// the member is never collected. Without the TTB term the guard would
/// end at 300 ms, before that beat.
#[test]
fn a_lost_first_frame_leaves_the_chain_member_alive() {
    let config = NetConfig::new(
        DgcConfig::builder()
            .ttb(Dur::from_millis(500))
            .tta(Dur::from_millis(1_200))
            .max_comm(Dur::from_millis(150))
            .build(),
    );
    let profile =
        FaultProfile::none().drop_frames(Some(0), Some(1), Window::from_millis(0, 200), 1_000);
    let cluster = Cluster::listen_local_chaos(2, config, profile).expect("bind cluster");
    let creator = cluster.add_activity(0); // never idled: it holds the member
    let member = cluster.add_activity(1);
    cluster.add_ref(creator, member);
    cluster.set_idle(member, true);
    std::thread::sleep(Duration::from_millis(1_500));
    assert!(
        cluster.chaos_stats().dropped >= 1,
        "the first frame was lost: {:?}",
        cluster.chaos_stats()
    );
    assert!(
        !cluster.is_terminated(member),
        "the creator's next beat holds the member: {:?}",
        cluster.terminated()
    );
    cluster.shutdown();
}

#[test]
fn ttb_and_tta_run_at_millisecond_scale() {
    // The whole point of the transport runtime: wall-clock protocol
    // timers. An isolated idle activity falls after TTA, so its
    // collection latency bounds the real timer period from above.
    let cluster = Cluster::listen_local(1, cfg()).expect("bind cluster");
    let a = cluster.add_activity(0);
    cluster.set_idle(a, true);
    let start = std::time::Instant::now();
    assert!(cluster.wait_until(Duration::from_secs(5), |t| !t.is_empty()));
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(3),
        "ms-scale TTA should collect in well under 3 s, took {elapsed:?}"
    );
    cluster.shutdown();
}

#[test]
fn shutdown_is_safe_after_a_failed_assertion() {
    // A failing test unwinds while links are live and half the
    // topology may already be dead; the cluster's Drop runs on that
    // unwind path and must neither hang nor double-panic. (Before the
    // Drop impl, an assertion failure leaked every node thread.)
    let cluster = Cluster::listen_local(3, cfg()).expect("bind cluster");
    let a = cluster.add_activity(0);
    let b = cluster.add_activity(1);
    cluster.add_ref(a, b);
    cluster.add_ref(b, a);
    cluster.set_idle(a, true);
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        let _owned = cluster; // dropped by the unwind below
        panic!("simulated failed assertion");
    }));
    assert!(unwound.is_err(), "the panic must have propagated");
    // Reaching this line is the assertion: the drop completed.
}

#[test]
fn batching_packs_cohosted_heartbeats_into_shared_frames() {
    // 12 referencers on node 0, all pointing at activities on node 1:
    // one TTB sweep queues 12·4 messages for the same peer, which the
    // link must coalesce instead of framing one by one.
    let cluster = Cluster::listen_local(2, cfg()).expect("bind cluster");
    let targets: Vec<_> = (0..4).map(|_| cluster.add_activity(1)).collect();
    for _ in 0..12 {
        let holder = cluster.add_activity(0);
        for t in &targets {
            cluster.add_ref(holder, *t);
        }
    }
    // Poll for the traffic condition instead of guessing how long the
    // sweeps take: the test finishes as soon as enough heartbeats have
    // flowed, and only a genuinely unbatched link exhausts the deadline.
    assert!(
        cluster.wait_stats_until(Duration::from_secs(10), |s| s[0].items_sent >= 48),
        "expected several TTB sweeps, got {:?}",
        cluster.stats()[0]
    );
    let s = cluster.stats()[0];
    assert!(
        s.items_per_frame() > 2.0,
        "co-located heartbeats should batch: {:.2} items/frame",
        s.items_per_frame()
    );
    cluster.shutdown();
}
