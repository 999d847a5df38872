//! Conservation of the egress publish on a live cluster. The sans-io
//! `Outbox` counts into its plain `EgressStats` and publishes buffered
//! deltas into the node's [`dgc_obs::Registry`] under `egress.*` (the
//! hot path touches no shared atomics). After a real run — sockets,
//! frames, flushes, collections — the registry must have caught up
//! with the struct on every node, or the delta-sync lost events.
//! (`net.*` and `tenant.*` have no such check: the registry is their
//! only store.)

use std::time::{Duration, Instant};

use dgc_core::config::DgcConfig;
use dgc_core::units::Dur;
use dgc_rt_net::{Cluster, NetConfig};

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
        std::thread::sleep(Duration::from_millis(20));
    }
    check()
}

/// `(registry key, outbox value)` pairs for one node.
fn egress_pairs(cluster: &Cluster, node: u32) -> Option<Vec<(&'static str, u64)>> {
    let eg = cluster.egress_stats(node)?;
    Some(vec![
        ("egress.enqueued_items", eg.enqueued_items),
        ("egress.enqueued_bytes", eg.enqueued_bytes),
        ("egress.dropped_items", eg.dropped_items),
        ("egress.dropped_bytes", eg.dropped_bytes),
        ("egress.flushes", eg.flushes),
        ("egress.items", eg.items),
        ("egress.bytes", eg.bytes),
        ("egress.piggybacked", eg.piggybacked),
        ("egress.flush_reason.app", eg.app_flushes),
        ("egress.flush_reason.delay", eg.delay_flushes),
        ("egress.flush_reason.bounds", eg.bound_flushes),
        ("egress.flush_reason.forced", eg.forced_flushes),
    ])
}

fn mismatches(cluster: &Cluster, nodes: u32) -> Vec<String> {
    let mut out = Vec::new();
    for node in 0..nodes {
        let Some(reg) = cluster.obs(node) else {
            out.push(format!("node {node}: no registry"));
            continue;
        };
        let Some(pairs) = egress_pairs(cluster, node) else {
            out.push(format!("node {node}: event loop did not answer"));
            continue;
        };
        let snap = reg.snapshot();
        for (name, counted) in pairs {
            let published = snap.counter(name);
            if published != counted {
                out.push(format!(
                    "node {node}: {name} outbox {counted} != registry {published}"
                ));
            }
        }
        // The flush-size histogram records exactly once per flush.
        let flushes = snap.counter("egress.flushes");
        let sized = snap.histogram("egress.flush_items").count;
        if sized != flushes {
            out.push(format!(
                "node {node}: egress.flush_items has {sized} samples for {flushes} flushes"
            ));
        }
    }
    out
}

#[test]
fn registry_mirrors_conserve_transport_and_egress_counters() {
    const NODES: u32 = 3;
    let cluster = Cluster::listen_local(NODES, NetConfig::new(dgc())).unwrap();

    // Real traffic on every plane: an acyclic chain from node 0 plus a
    // cross-node cycle between nodes 1 and 2, all garbage — so frames,
    // flushes, heartbeats, consensus and terminations all happen before
    // the cluster quiesces.
    let a = cluster.add_activity(0);
    let b = cluster.add_activity(1);
    let c = cluster.add_activity(2);
    cluster.add_ref(a, b);
    cluster.add_ref(b, c);
    cluster.add_ref(c, b);
    cluster.set_idle(a, true);
    cluster.set_idle(b, true);
    cluster.set_idle(c, true);
    assert!(
        cluster.wait_until(Duration::from_secs(20), |t| t.len() == 3),
        "all three activities must collect; saw {:?}",
        cluster.terminated()
    );

    // With every endpoint collected (and no membership layer) the
    // traffic stops; the outbox drains and publishes within the poll.
    let conserved = poll_until(Duration::from_secs(5), || {
        mismatches(&cluster, NODES).is_empty()
    });
    assert!(
        conserved,
        "registry diverged from the outbox counters:\n{}",
        mismatches(&cluster, NODES).join("\n")
    );

    // And the run actually exercised the planes under test.
    let total = cluster.obs_merged();
    assert!(total.counter("net.frames_sent") > 0, "no frames crossed");
    assert!(total.counter("egress.flushes") > 0, "nothing flushed");
    assert!(
        total.counter("dgc.collected.acyclic") + total.counter("dgc.collected.cyclic") == 3,
        "collections not recorded: {}",
        total.render_tree()
    );
    cluster.shutdown();
}
