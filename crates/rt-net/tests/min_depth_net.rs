//! The depth-carrying batch form on live links. Under the default
//! `FirstResponder` policy no response has a depth, so every batch a node
//! writes is the depth-free `0xF1` form; under `ParentPolicy::MinDepth`
//! responses carry their spanning-tree depth (an originator answers with
//! depth 0), so the frames holding them are `0xF5`. This is the run of
//! that form over real sockets.

use std::time::Duration;

use dgc_core::config::{DgcConfig, ParentPolicy};
use dgc_core::units::Dur;
use dgc_rt_net::{Cluster, NetConfig};

#[test]
fn min_depth_ring_across_two_nodes_is_collected() {
    let config = NetConfig::new(
        DgcConfig::builder()
            .ttb(Dur::from_millis(25))
            .tta(Dur::from_millis(80))
            .max_comm(Dur::from_millis(20))
            .parent_policy(ParentPolicy::MinDepth)
            .build(),
    );
    let cluster = Cluster::listen_local(2, config).expect("bind cluster");
    // Alternate the members between the nodes: every edge crosses a link.
    let ring: Vec<_> = (0..4).map(|k| cluster.add_activity(k % 2)).collect();
    for k in 0..4 {
        cluster.add_ref(ring[k], ring[(k + 1) % 4]);
    }
    for id in &ring {
        cluster.set_idle(*id, true);
    }
    assert!(
        cluster.wait_until(Duration::from_secs(20), |t| t.len() == 4),
        "MinDepth 4-ring over sockets not collected: {:?}",
        cluster.terminated()
    );
    let terminated = cluster.terminated();
    assert!(ring.iter().all(|id| terminated.iter().any(|t| t.ao == *id)));
    assert!(
        terminated.iter().any(|t| t.reason.is_cyclic()),
        "a ring needs the cyclic path, got {terminated:?}"
    );
    let stats = cluster.stats();
    assert!(stats[0].items_received > 0 && stats[1].items_received > 0);
    assert_eq!(cluster.total_stats().decode_errors, 0);
    cluster.shutdown();
}
