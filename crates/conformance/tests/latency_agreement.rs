//! The telemetry-plane half of the conformance contract: both runtimes
//! must not only reach the same *verdict*, they must measure the same
//! *collection latency* for the same scenario.
//!
//! `safe-with-slack` collects a two-member garbage cycle on each
//! runtime, and each collection records into the node-local
//! `dgc.collect.*` histograms (virtual nanoseconds on the grid, wall
//! nanoseconds on sockets). Since TTB/TTA/MaxComm are identical and the
//! latency is protocol-dominated (consensus propagation plus the §4.3
//! TTA wait — hundreds of milliseconds against ~2 ms of transport
//! noise), the two distributions must agree: same observation count,
//! means on the same side of TTA, and means within a small factor of
//! each other. That factor is the *slack*: the fault profile (20 ms
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

    // The latency includes the full §4.3 TTA wait, so each mean sits
    // above TTA on both clocks...
    let tta = scenario.dgc.tta.as_nanos() as f64;
    assert!(sim_h.mean() >= tta, "simnet mean {:.0} < TTA", sim_h.mean());
    assert!(net_h.mean() >= tta, "rt-net mean {:.0} < TTA", net_h.mean());

    // ...and the two means agree within the slack (see module docs).
    let ttb = scenario.dgc.ttb.as_nanos() as f64;
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

    // The TTA wait itself is measured separately and is bounded below
    // by TTA by construction — on both runtimes.
    for (name, snap) in [("simnet", &sim), ("rt-net", &net)] {
        let wait = snap
            .snapshot
            .histogram("dgc.collect.consensus_to_collected_ns");
        assert_eq!(wait.count, 2, "{name}: missing TTA-wait samples");
        assert!(
            wait.mean() >= tta,
            "{name}: TTA wait mean {:.0} < TTA",
            wait.mean()
        );
    }

    // On the grid the wait is exactly TTA: the simulator runs the node
    // kernel, where a dying endpoint's one timer is its TTA deadline —
    // a propagated member does not wait for its next cadence tick — and
    // virtual time adds no scheduling jitter. (`sum` is exact.)
    let sim_wait = sim
        .snapshot
        .histogram("dgc.collect.consensus_to_collected_ns");
    assert_eq!(
        sim_wait.sum,
        sim_wait.count * scenario.dgc.tta.as_nanos(),
        "simnet: a TTA wait other than TTA"
    );
}
