//! A node is exactly one OS thread, through churn and after it.
//!
//! Every socket of a node — listener, dialed links, accepted
//! connections, join probes — lives on the node's own readiness loop,
//! so a running cluster costs one thread per node, a wave of
//! crash/rejoin cycles must leave that count where it was, and shutdown
//! must return the process to the count it started with.
//!
//! Linux-only: counts live via `/proc/self/status`. The file holds a
//! single test so the count is not polluted by parallel tests in the
//! same binary.

#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use dgc_core::config::DgcConfig;
use dgc_core::units::Dur;
use dgc_membership::{MembershipConfig, NodeStatus};
use dgc_rt_net::{Cluster, NetConfig};

fn cfg() -> NetConfig {
    NetConfig::new(
        DgcConfig::builder()
            .ttb(Dur::from_millis(25))
            .tta(Dur::from_millis(80))
            .max_comm(Dur::from_millis(20))
            .build(),
    )
    .membership(MembershipConfig {
        gossip_interval: Dur::from_millis(50),
        suspect_after: Dur::from_millis(250),
        dead_after: Dur::from_millis(750),
        full_sync_every: 10,
    })
}

/// Live threads in this process, per the kernel.
fn live_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .expect("read /proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads: line")
        .trim()
        .parse()
        .expect("thread count")
}

/// Polls until the live-thread count drops to `limit`, returning the
/// last observed count (a joined thread can linger in the kernel's
/// count for a moment after `join` returns).
fn settle_to(limit: usize, deadline: Duration) -> usize {
    let start = Instant::now();
    let mut n = live_threads();
    while n > limit && start.elapsed() < deadline {
        std::thread::sleep(Duration::from_millis(25));
        n = live_threads();
    }
    n
}

fn full_alive(records: &[dgc_membership::NodeRecord], n: u32) -> bool {
    records.len() == n as usize && records.iter().all(|r| r.status == NodeStatus::Alive)
}

#[test]
fn crash_rejoin_churn_does_not_leak_threads() {
    let before_cluster = live_threads();

    let cluster = Cluster::join_local(3, cfg()).expect("bind cluster");
    for node in 0..3 {
        assert!(
            cluster.wait_membership_until(node, Duration::from_secs(10), |r| full_alive(r, 3)),
            "node {node} never converged"
        );
    }
    // One loop thread per node and nothing else.
    assert_eq!(
        live_threads(),
        before_cluster + 3,
        "a steady 3-node cluster is three threads"
    );

    for cycle in 0..4u64 {
        cluster.crash_node(2);
        for node in 0..2 {
            assert!(
                cluster.wait_membership_until(node, Duration::from_secs(10), |r| {
                    r.iter()
                        .any(|x| x.node == 2 && x.status == NodeStatus::Dead)
                }),
                "cycle {cycle}: node {node} never buried node 2"
            );
        }
        cluster.restart_node(2, cycle + 2).expect("restart");
        for node in 0..3 {
            assert!(
                cluster.wait_membership_until(node, Duration::from_secs(10), |r| {
                    full_alive(r, 3) && r.iter().any(|x| x.node == 2 && x.incarnation == cycle + 2)
                }),
                "cycle {cycle}: node {node} never saw the rejoin"
            );
        }
    }

    // The churn wave over, the count is the steady one again: each
    // crash joined its node's thread, each restart spawned exactly one.
    assert_eq!(
        settle_to(before_cluster + 3, Duration::from_secs(15)),
        before_cluster + 3,
        "thread count moved across 4 crash/rejoin cycles"
    );

    // And after shutdown every node thread must be joined: back to the
    // pre-cluster count (one of slack for the test harness).
    cluster.shutdown();
    let after_shutdown = settle_to(before_cluster + 1, Duration::from_secs(15));
    assert!(
        after_shutdown <= before_cluster + 1,
        "threads survived shutdown: before {before_cluster}, after {after_shutdown}"
    );
}
