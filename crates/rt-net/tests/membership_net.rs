//! Membership over real sockets: seed bootstrap, failure detection,
//! crash-rejoin incarnations, and the rejoined node's participation in
//! the DGC — the acceptance path of the seed-node gossip directory.

use std::time::Duration;

use dgc_core::config::DgcConfig;
use dgc_core::units::Dur;
use dgc_membership::{MembershipConfig, NodeStatus, Transition};
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

/// All `n` nodes alive in `records`.
fn full_alive(records: &[dgc_membership::NodeRecord], n: u32) -> bool {
    records.len() == n as usize && records.iter().all(|r| r.status == NodeStatus::Alive)
}

#[test]
fn three_nodes_converge_from_one_seed_address() {
    // Nodes 1 and 2 are handed ONLY node 0's address. Node 2 must still
    // learn node 1 exists — and where it listens — through gossip.
    let cluster = Cluster::join_local(3, cfg()).expect("bind cluster");
    for node in 0..3 {
        assert!(
            cluster.wait_membership_until(node, Duration::from_secs(10), |r| full_alive(r, 3)),
            "node {node} never converged: {:?}",
            cluster.member_records(node)
        );
    }
    // The discovered address is the real one, not hearsay.
    let records = cluster.member_records(2).expect("up");
    let of_1 = records.iter().find(|r| r.node == 1).expect("learned 1");
    assert_eq!(of_1.addr, Some(cluster.addr(1)));
    assert_eq!(of_1.incarnation, 1, "first lives run as incarnation 1");
    cluster.shutdown();
}

#[test]
fn crash_is_buried_and_a_higher_incarnation_rejoin_recovers() {
    let cluster = Cluster::join_local(3, cfg()).expect("bind cluster");
    for node in 0..3 {
        assert!(cluster.wait_membership_until(node, Duration::from_secs(10), |r| full_alive(r, 3)));
    }
    cluster.crash_node(2);
    assert!(cluster.is_down(2));
    for node in 0..2 {
        assert!(
            cluster.wait_membership_until(node, Duration::from_secs(10), |r| {
                r.iter()
                    .any(|x| x.node == 2 && x.status == NodeStatus::Dead)
            }),
            "node {node} never buried node 2: {:?}",
            cluster.member_records(node)
        );
    }
    // Restart under incarnation 2 — a fresh port, rejoined through the
    // seed; its record must supersede the corpse everywhere.
    cluster.restart_node(2, 2).expect("restart");
    for node in 0..3 {
        assert!(
            cluster.wait_membership_until(node, Duration::from_secs(10), |r| {
                r.iter()
                    .any(|x| x.node == 2 && x.status == NodeStatus::Alive && x.incarnation == 2)
                    && full_alive(r, 3)
            }),
            "node {node} never saw the rejoin: {:?}",
            cluster.member_records(node)
        );
    }
    // The survivor observed the full lifecycle as an event stream.
    let events = cluster.membership_events(0);
    let about_2: Vec<Transition> = events
        .iter()
        .filter(|e| e.node == 2)
        .map(|e| e.transition)
        .collect();
    assert!(
        about_2.contains(&Transition::Dead) && about_2.ends_with(&[Transition::Alive]),
        "node 0 lifecycle view of node 2: {about_2:?}"
    );
    cluster.shutdown();
}

#[test]
fn rejoined_node_runs_the_full_collection_cycle() {
    // The end-to-end acceptance: after a crash + rejoin (new
    // incarnation, new port, gossiped address), a cross-node garbage
    // cycle through the REJOINED node must still be collected — the
    // TTB/TTA machinery resumes over links dialed from gossip, in both
    // directions.
    let cluster = Cluster::join_local(3, cfg()).expect("bind cluster");
    for node in 0..3 {
        assert!(cluster.wait_membership_until(node, Duration::from_secs(10), |r| full_alive(r, 3)));
    }
    cluster.crash_node(2);
    assert!(
        cluster.wait_membership_until(0, Duration::from_secs(10), |r| {
            r.iter()
                .any(|x| x.node == 2 && x.status == NodeStatus::Dead)
        })
    );
    cluster.restart_node(2, 2).expect("restart");
    for node in 0..3 {
        assert!(
            cluster.wait_membership_until(node, Duration::from_secs(15), |r| full_alive(r, 3)),
            "node {node} never reconverged: {:?}",
            cluster.member_records(node)
        );
    }
    let a = cluster.add_activity(0);
    let c = cluster.add_activity(2);
    cluster.add_ref(a, c);
    cluster.add_ref(c, a);
    cluster.set_idle(a, true);
    cluster.set_idle(c, true);
    assert!(
        cluster.wait_until(Duration::from_secs(20), |t| {
            t.iter().any(|x| x.ao == a) && t.iter().any(|x| x.ao == c)
        }),
        "cycle through the rejoined node must fall: {:?}",
        cluster.terminated()
    );
    assert!(
        cluster.terminated().iter().any(|t| t.reason.is_cyclic()),
        "it is a cycle: consensus must have fired"
    );
    cluster.shutdown();
}

/// Every counter and histogram of `earlier` reads at least as high in
/// `later`.
fn assert_never_decreased(earlier: &dgc_obs::Snapshot, later: &dgc_obs::Snapshot, when: &str) {
    for (key, v) in &earlier.counters {
        assert!(later.counter(key) >= *v, "{key} went backwards {when}");
    }
    for (key, h) in &earlier.histograms {
        let count = later.histogram(key).count;
        assert!(count >= h.count, "{key} lost samples {when}");
    }
}

#[test]
fn total_stats_and_obs_merged_are_monotone_across_crash_and_rejoin() {
    let cluster = Cluster::join_local(3, cfg()).expect("bind cluster");
    for node in 0..3 {
        assert!(cluster.wait_membership_until(node, Duration::from_secs(10), |r| full_alive(r, 3)));
    }
    // Convergence took gossip, so node 2 has counted frames by now.
    let before = cluster.total_stats();
    let before_obs = cluster.obs_merged();
    let reg2 = cluster.obs(2).expect("up");
    cluster.crash_node(2);
    // The handle outlives the node; its loop was joined, so this is
    // everything node 2's first life ever counted.
    let first_life = reg2.snapshot();
    assert!(first_life.counter("net.frames_sent") > 0);
    assert!(first_life.histogram("egress.flush_items").count > 0);

    // Survivors first, totals second: the survivors only count up, so
    // each total must cover their reading plus the whole dead life.
    let floor = first_life
        .merge(&cluster.obs(0).expect("up").snapshot())
        .merge(&cluster.obs(1).expect("up").snapshot());
    let down = cluster.total_stats();
    let down_obs = cluster.obs_merged();
    assert_never_decreased(&floor, &down_obs, "below survivors + the crashed life");
    assert!(
        down.frames_sent >= floor.counter("net.frames_sent"),
        "total_stats dropped the crashed node's frames: {down:?}"
    );
    assert!(down.frames_sent >= before.frames_sent && down.bytes_sent >= before.bytes_sent);
    assert_never_decreased(&before_obs, &down_obs, "across the crash");
    // The per-node view keeps its per-life meaning: zero while down.
    assert_eq!(cluster.stats()[2], Default::default());

    cluster.restart_node(2, 2).expect("restart");
    assert!(
        cluster.wait_membership_until(0, Duration::from_secs(15), |r| {
            r.iter().any(|x| x.node == 2 && x.incarnation == 2)
        }),
        "node 0 never heard from the second life: {:?}",
        cluster.member_records(0)
    );
    // The second life counts from zero; the totals carry on from the
    // first life's.
    let after = cluster.total_stats();
    assert!(after.frames_sent >= down.frames_sent && after.bytes_sent >= down.bytes_sent);
    assert_never_decreased(&down_obs, &cluster.obs_merged(), "across the rejoin");
    cluster.shutdown();
}

#[test]
fn a_crashed_seed_no_longer_strands_rejoins() {
    // 4 nodes, 2 seeds (0 and 1). Seed 0 — the node every pre-multi-seed
    // join went through — crashes for good; node 3 then crashes and
    // must still rejoin, bootstrapping through surviving seed 1.
    let cluster = Cluster::join_local_seeded(4, 2, cfg()).expect("bind cluster");
    for node in 0..4 {
        assert!(
            cluster.wait_membership_until(node, Duration::from_secs(10), |r| full_alive(r, 4)),
            "node {node} never converged: {:?}",
            cluster.member_records(node)
        );
    }
    cluster.crash_node(0);
    cluster.crash_node(3);
    assert!(
        cluster.wait_membership_until(1, Duration::from_secs(10), |r| {
            r.iter()
                .any(|x| x.node == 3 && x.status == NodeStatus::Dead)
        }),
        "seed 1 never buried node 3: {:?}",
        cluster.member_records(1)
    );
    cluster.restart_node(3, 2).expect("restart through seed 1");
    for node in [1, 2, 3] {
        assert!(
            cluster.wait_membership_until(node, Duration::from_secs(15), |r| {
                r.iter()
                    .any(|x| x.node == 3 && x.status == NodeStatus::Alive && x.incarnation == 2)
            }),
            "node {node} never saw the rejoin: {:?}",
            cluster.member_records(node)
        );
    }
    cluster.shutdown();
}

#[test]
fn a_restarted_seed_rejoins_through_the_other_seed_and_refreshes_its_address() {
    // The seed itself dies and comes back (fresh port, incarnation 2):
    // with a second seed alive this must converge, and later rejoins
    // must dial the seed's *new* address, not the corpse's.
    let cluster = Cluster::join_local_seeded(3, 2, cfg()).expect("bind cluster");
    for node in 0..3 {
        assert!(cluster.wait_membership_until(node, Duration::from_secs(10), |r| full_alive(r, 3)));
    }
    let old_seed_addrs = cluster.seed_addrs();
    cluster.crash_node(0);
    assert!(
        cluster.wait_membership_until(1, Duration::from_secs(10), |r| {
            r.iter()
                .any(|x| x.node == 0 && x.status == NodeStatus::Dead)
        })
    );
    cluster
        .restart_node(0, 2)
        .expect("seed restarts via seed 1");
    for node in 0..3 {
        assert!(
            cluster.wait_membership_until(node, Duration::from_secs(15), |r| {
                r.iter()
                    .any(|x| x.node == 0 && x.status == NodeStatus::Alive && x.incarnation == 2)
            }),
            "node {node} never adopted the seed's rejoin: {:?}",
            cluster.member_records(node)
        );
    }
    let new_seed_addrs = cluster.seed_addrs();
    assert_ne!(
        old_seed_addrs[0], new_seed_addrs[0],
        "the restarted seed listens on a fresh port"
    );
    assert_eq!(new_seed_addrs[0], cluster.addr(0));
    // And the refreshed directory actually bootstraps: crash node 2 and
    // rejoin it through the *new* seed set.
    cluster.crash_node(2);
    cluster
        .restart_node(2, 2)
        .expect("rejoin via refreshed seeds");
    assert!(
        cluster.wait_membership_until(0, Duration::from_secs(15), |r| {
            r.iter()
                .any(|x| x.node == 2 && x.status == NodeStatus::Alive && x.incarnation == 2)
        }),
        "rejoin through the refreshed seed set failed: {:?}",
        cluster.member_records(0)
    );
    cluster.shutdown();
}

#[test]
fn graceful_leave_is_announced_and_buries_without_suspicion_delay() {
    let cluster = Cluster::join_local(3, cfg()).expect("bind cluster");
    for node in 0..3 {
        assert!(cluster.wait_membership_until(node, Duration::from_secs(10), |r| full_alive(r, 3)));
    }
    // An activity on the leaver holds one on node 1: the Left verdict
    // must cut that edge (on_node_dead) so the orphan falls.
    let w = cluster.add_activity(2);
    let u = cluster.add_activity(1);
    cluster.add_ref(w, u);
    cluster.set_idle(u, true);
    std::thread::sleep(Duration::from_millis(200));
    assert!(!cluster.is_terminated(u), "held by busy w before the leave");
    cluster.leave_node(2);
    assert!(cluster.is_down(2));
    for node in 0..2 {
        assert!(
            cluster.wait_membership_until(node, Duration::from_secs(5), |r| {
                r.iter()
                    .any(|x| x.node == 2 && x.status == NodeStatus::Left)
            }),
            "node {node} never heard the farewell: {:?}",
            cluster.member_records(node)
        );
        assert!(cluster
            .membership_events(node)
            .iter()
            .any(|e| e.node == 2 && e.transition == Transition::Left));
    }
    assert!(
        cluster.wait_until(Duration::from_secs(10), |t| t.iter().any(|x| x.ao == u)),
        "orphaned by the leave: must fall as correct collection: {:?}",
        cluster.terminated()
    );
    cluster.shutdown();
}

#[test]
fn crash_without_membership_goes_terminal_not_retry_forever() {
    // Satellite regression: with membership disabled, a permanently
    // unreachable peer must surface a *terminal* verdict (send failures
    // + on_node_dead) after fail_after_attempts — the link thread exits
    // instead of spinning on backoff.
    let config = NetConfig {
        fail_after_attempts: 3,
        membership: None,
        ..cfg()
    };
    let cluster = Cluster::listen_local(2, config).expect("bind cluster");
    let holder = cluster.add_activity(0);
    let target = cluster.add_activity(1);
    cluster.add_ref(holder, target);
    cluster.crash_node(1);
    // The holder stays busy (never collectable) but must shed the edge:
    // queued heartbeats surface as send failures once the link goes
    // terminal.
    assert!(
        cluster.wait_stats_until(Duration::from_secs(15), |s| s[0].send_failures > 0),
        "terminal link must surface send failures: {:?}",
        cluster.stats()
    );
    cluster.shutdown();
}
