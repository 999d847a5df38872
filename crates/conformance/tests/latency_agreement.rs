//! The telemetry-plane half of the conformance contract: both runtimes
//! must not only reach the same *verdict*, they must measure the same
//! *collection latency* for the same scenario.
//!
//! `safe-with-slack` collects a two-member garbage cycle on each
//! runtime, and each collection records into the node-local
//! `dgc.collect.*` histograms (virtual nanoseconds on the grid, wall
//! nanoseconds on sockets). Since TTB/TTA/MaxComm are identical and the
//! latency is protocol-dominated (consensus rounds of TTB each plus the
//! §4.3 dying wait — hundreds of milliseconds against ~2 ms of transport
//! noise), the two distributions must agree: same observation count,
//! means above one TTB, dying waits within TTA, and means within a small
//! factor of each other. That factor is the *slack*: the fault profile (20 ms
//! extra delay, seeded frame loss) perturbs the consensus schedule
//! differently per runtime, and wall-clock runs add scheduling jitter,
//! but neither effect can stretch one runtime's latency past 4× the
//! other's plus a couple of TTB rounds without a real divergence.

use dgc_conformance::{
    env_trace_level, run_rtnet_obs, run_simnet_obs, scenarios, seeds, TraceLevel,
};

#[test]
fn collection_latency_histograms_agree_across_runtimes() {
    let scenario = scenarios::safe_with_slack();
    let seed = seeds()[0];
    let (sim_verdict, sim) = run_simnet_obs(&scenario, seed);
    let (net_verdict, net) = run_rtnet_obs(&scenario, seed).expect("bind chaos cluster");
    assert_eq!(sim_verdict, scenario.expect, "simnet verdict diverged");
    assert_eq!(net_verdict, scenario.expect, "rt-net verdict diverged");

    // When the suite runs under DGC_TRACE=info|debug, both runtimes
    // must actually have recorded protocol events into their rings.
    if env_trace_level() != TraceLevel::Off {
        for (name, tel) in [("simnet", &sim), ("rt-net", &net)] {
            assert!(
                tel.trace_tails.iter().any(|(_, t)| !t.is_empty()),
                "{name}: DGC_TRACE set but no events recorded"
            );
        }
    }

    let sim_h = sim.snapshot.histogram("dgc.collect.idle_to_collected_ns");
    let net_h = net.snapshot.histogram("dgc.collect.idle_to_collected_ns");

    // Both cycle members were collected, and every collection recorded
    // exactly one latency sample — on both runtimes.
    assert_eq!(sim_h.count, 2, "simnet: {} samples", sim_h.count);
    assert_eq!(net_h.count, sim_h.count, "sample counts diverge");
    for (name, snap) in [("simnet", &sim), ("rt-net", &net)] {
        let collected = snap.snapshot.counter("dgc.collected.cyclic")
            + snap.snapshot.counter("dgc.collected.acyclic");
        assert_eq!(
            collected,
            snap.snapshot
                .histogram("dgc.collect.idle_to_collected_ns")
                .count,
            "{name}: collections without a latency sample"
        );
    }

    // After going idle, a member's referencer must beat twice before
    // the owner can detect — once to carry the post-idle clock, once to
    // consent to it — so each mean sits above one TTB on both clocks...
    let ttb = scenario.dgc.ttb.as_nanos() as f64;
    assert!(sim_h.mean() >= ttb, "simnet mean {:.0} < TTB", sim_h.mean());
    assert!(net_h.mean() >= ttb, "rt-net mean {:.0} < TTB", net_h.mean());

    // ...and the two means agree within the slack (see module docs).
    let (lo, hi) = if sim_h.mean() <= net_h.mean() {
        (sim_h.mean(), net_h.mean())
    } else {
        (net_h.mean(), sim_h.mean())
    };
    assert!(
        hi <= lo * 4.0 + 2.0 * ttb,
        "collection-latency means diverge: simnet {:.0} ns vs rt-net {:.0} ns",
        sim_h.mean(),
        net_h.mean()
    );

    // The §4.3 dying wait is measured separately. It ends when every
    // referencer has been told, TTA at the latest, and in this
    // fault-free-enough 2-cycle it never needs the cap — on both
    // runtimes.
    let tta = scenario.dgc.tta.as_nanos() as f64;
    for (name, snap) in [("simnet", &sim), ("rt-net", &net)] {
        let wait = snap
            .snapshot
            .histogram("dgc.collect.consensus_to_collected_ns");
        assert_eq!(wait.count, 2, "{name}: missing dying-wait samples");
        assert!(
            wait.mean() < tta,
            "{name}: dying wait mean {:.0} ≥ TTA",
            wait.mean()
        );
        let ended = |how| snap.snapshot.counter(&format!("dgc.dying.ended_{how}"));
        assert_eq!((ended("told"), ended("capped")), (2, 0), "{name}");
    }

    // On the grid the waits are exact: virtual time adds no scheduling
    // jitter and the simulator runs the node kernel, where a dying
    // endpoint's one timer is its deadline. The member whose only
    // referencer owns the consensus clock goes at its consensus instant
    // (a zero wait); the owner goes the moment that member's beat lands,
    // and the answer reaches the member one hop later — 2 ms of link
    // plus the profile's 20 ms delay. Both members went idle at 100 ms
    // and were spawned at 0, so Σ spawn→collected is the owner's
    // collection instant twice plus the hop, and the owner's collection
    // instant is 100 ms + idle→consensus + its wait. (`sum` is exact.)
    let sim_wait = sim
        .snapshot
        .histogram("dgc.collect.consensus_to_collected_ns");
    assert_eq!(sim_wait.buckets[0], 1, "simnet: one wait is exactly zero");
    let idle_at = 100_000_000;
    let hop = 22_000_000;
    let owner_detected = idle_at
        + sim
            .snapshot
            .histogram("dgc.collect.idle_to_consensus_ns")
            .sum;
    assert_eq!(
        sim.snapshot
            .histogram("dgc.collect.spawn_to_collected_ns")
            .sum,
        2 * (owner_detected + sim_wait.sum) + hop,
        "simnet: a dying wait that did not end when its referencer was told"
    );
}
